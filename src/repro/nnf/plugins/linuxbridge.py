"""linuxbridge plugin — the paper's "virtual switch" NNF example.

Dedicated only: each service graph gets its own bridge in its own
namespace (``multi_instance``).  A bridge cannot share the adaptation
layer's one trunk port: it would have to send each frame back out the
port it came in on, with the same tag, so it would do no switching,
and steering already does each graph's L2 forwarding.
"""

from __future__ import annotations

from repro.nnf.plugin import NnfPlugin, PluginContext

__all__ = ["LinuxBridgePlugin"]


class LinuxBridgePlugin(NnfPlugin):
    name = "linuxbridge"
    functional_type = "bridge"
    sharable = False
    multi_instance = True
    single_interface = False
    package = "bridge-utils"

    def _brctl(self, ctx: PluginContext) -> str:
        return f"ip netns exec {ctx.netns} brctl"

    def _bridge_name(self, ctx: PluginContext) -> str:
        return f"br-{ctx.instance_id}"

    def create_script(self, ctx: PluginContext) -> list[str]:
        return [f"{self._brctl(ctx)} addbr {self._bridge_name(ctx)}"]

    def configure_script(self, ctx: PluginContext) -> list[str]:
        bridge = self._bridge_name(ctx)
        return [f"{self._brctl(ctx)} addif {bridge} {device}"
                for _port, device in sorted(ctx.ports.items())]

    def start_script(self, ctx: PluginContext) -> list[str]:
        return [f"ip netns exec {ctx.netns} ip link set {device} up"
                for _port, device in sorted(ctx.ports.items())]

    def destroy_script(self, ctx: PluginContext) -> list[str]:
        bridge = self._bridge_name(ctx)
        commands = [f"{self._brctl(ctx)} delif {bridge} {device}"
                    for _port, device in sorted(ctx.ports.items())]
        commands.append(f"{self._brctl(ctx)} delbr {bridge}")
        return commands
