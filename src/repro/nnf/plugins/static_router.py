"""Static router plugin: plain kernel forwarding between two ports.

Multi-instance: every graph gets its own namespace, so no sharing
machinery is needed — the "easy" kind of NNF, useful as a baseline in
the sharability ablation.
"""

from __future__ import annotations

from repro.nnf.plugin import NnfPlugin, PluginContext
from repro.nnf.plugins._routes import dedicated_address_commands

__all__ = ["StaticRouterPlugin"]


class StaticRouterPlugin(NnfPlugin):
    name = "static-router"
    functional_type = "router"
    sharable = False
    multi_instance = True
    single_interface = False
    package = "iproute2"

    def create_script(self, ctx: PluginContext) -> list[str]:
        return [
            f"ip netns exec {ctx.netns} sysctl -w net.ipv4.ip_forward=1",
        ]

    def configure_script(self, ctx: PluginContext) -> list[str]:
        commands = dedicated_address_commands(ctx)
        for key, value in sorted(ctx.config.items()):
            if key.startswith("route."):
                # route.<n> = "<cidr> via <gw>" or "<cidr> dev <port>"
                spec = value.split()
                if len(spec) == 3 and spec[1] == "via":
                    commands.append(f"ip netns exec {ctx.netns} "
                                    f"ip route add {spec[0]} via {spec[2]}")
                elif len(spec) == 3 and spec[1] == "dev":
                    commands.append(
                        f"ip netns exec {ctx.netns} ip route add "
                        f"{spec[0]} dev {ctx.port(spec[2])}")
        return commands

    def start_script(self, ctx: PluginContext) -> list[str]:
        return [f"ip netns exec {ctx.netns} ip link set {device} up"
                for _port, device in sorted(ctx.ports.items())]
