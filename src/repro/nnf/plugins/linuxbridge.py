"""linuxbridge plugin — the paper's "virtual switch" NNF example.

Sharable as an L2 component: the shared instance is one vlan-filtering
bridge; each service graph's traffic stays tagged with the graph's VLAN
across the bridge, so FDB learning and forwarding are isolated per
graph (per-VLAN FDB = the "multiple internal paths").  A graph's VLAN
id is the same on every port, so the inherited add-path script is empty.
"""

from __future__ import annotations

from repro.nnf.plugin import NnfPlugin, PluginContext

__all__ = ["LinuxBridgePlugin"]


class LinuxBridgePlugin(NnfPlugin):
    name = "linuxbridge"
    functional_type = "bridge"
    sharable = True
    multi_instance = True
    single_interface = False
    package = "bridge-utils"

    def _bridge_name(self, ctx: PluginContext) -> str:
        return f"br-{ctx.instance_id}"

    def create_script(self, ctx: PluginContext) -> list[str]:
        return [f"brctl addbr {self._bridge_name(ctx)}"]

    def configure_script(self, ctx: PluginContext) -> list[str]:
        bridge = self._bridge_name(ctx)
        return [f"brctl addif {bridge} {device}"
                for _port, device in sorted(ctx.ports.items())]

    def start_script(self, ctx: PluginContext) -> list[str]:
        return [f"ip netns exec {ctx.netns} ip link set {device} up"
                for _port, device in sorted(ctx.ports.items())]

    def destroy_script(self, ctx: PluginContext) -> list[str]:
        bridge = self._bridge_name(ctx)
        commands = [f"brctl delif {bridge} {device}"
                    for _port, device in sorted(ctx.ports.items())]
        commands.append(f"brctl delbr {bridge}")
        return commands
