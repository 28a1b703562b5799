"""iptables NAT plugin — the paper's first NNF example.

Sharable: one kernel iptables serves many service graphs.  The marking
mechanism (paper requirement (i)) is a fwmark set from the per-graph
ingress subinterface; the isolated internal paths (requirement (ii))
are mark-scoped MASQUERADE and FORWARD rules, with the FORWARD policy
defaulting to DROP so traffic cannot cross between graphs.
"""

from __future__ import annotations

from repro.nnf.plugin import NnfPlugin, PluginContext
from repro.nnf.plugins._routes import (
    dedicated_address_commands,
    path_address_commands,
    path_routing_commands,
)

__all__ = ["IptablesNatPlugin"]


class IptablesNatPlugin(NnfPlugin):
    name = "iptables-nat"
    functional_type = "nat"
    sharable = True
    multi_instance = True   # netns-scoped iptables: one per namespace too
    single_interface = True  # shared flavor attaches via one trunk port
    package = "iptables"

    # -- dedicated (per-graph namespace) mode -----------------------------------
    def create_script(self, ctx: PluginContext) -> list[str]:
        return [
            f"ip netns exec {ctx.netns} sysctl -w net.ipv4.ip_forward=1",
            f"ip netns exec {ctx.netns} iptables -P FORWARD DROP",
        ]

    def configure_script(self, ctx: PluginContext) -> list[str]:
        lan, wan = ctx.port("lan"), ctx.port("wan")
        commands = dedicated_address_commands(ctx)
        commands.extend([
            f"ip netns exec {ctx.netns} iptables -t nat -A POSTROUTING "
            f"-o {wan} -j MASQUERADE",
            f"ip netns exec {ctx.netns} iptables -A FORWARD -i {lan} "
            f"-o {wan} -j ACCEPT",
            f"ip netns exec {ctx.netns} iptables -A FORWARD -i {wan} "
            f"-o {lan} -m conntrack --ctstate ESTABLISHED,RELATED "
            f"-j ACCEPT",
        ])
        return commands

    def start_script(self, ctx: PluginContext) -> list[str]:
        lan, wan = ctx.port("lan"), ctx.port("wan")
        return [
            f"ip netns exec {ctx.netns} ip link set {lan} up",
            f"ip netns exec {ctx.netns} ip link set {wan} up",
        ]

    # -- shared-instance mode ------------------------------------------------------
    def add_path_script(self, ctx: PluginContext) -> list[str]:
        """One graph's isolated path through the shared instance."""
        if ctx.mark is None:
            raise ValueError("shared path needs a mark")
        lan, wan = ctx.port("lan"), ctx.port("wan")
        mark = ctx.mark
        commands = path_address_commands(ctx)
        # (ii) per-graph routing: a dedicated table selected by fwmark,
        # holding this graph's connected subnets and default route, so
        # paths through the shared component never mix.
        commands.extend(path_routing_commands(ctx))
        commands.extend([
            # (i) the ad-hoc marking mechanism: per-graph ingress mark
            f"ip netns exec {ctx.netns} iptables -t mangle -A PREROUTING "
            f"-i {lan} -j MARK --set-mark {mark}",
            f"ip netns exec {ctx.netns} iptables -t mangle -A PREROUTING "
            f"-i {wan} -j MARK --set-mark {mark}",
            # propagate the mark across connections (replies included)
            f"ip netns exec {ctx.netns} iptables -t mangle -A PREROUTING "
            f"-m mark --mark {mark} -j CONNMARK --save-mark",
            # (ii) the isolated internal path, keyed on the mark
            f"ip netns exec {ctx.netns} iptables -A FORWARD "
            f"-m mark --mark {mark} -i {lan} -o {wan} -j ACCEPT",
            f"ip netns exec {ctx.netns} iptables -A FORWARD "
            f"-m mark --mark {mark} -i {wan} -o {lan} "
            f"-m conntrack --ctstate ESTABLISHED,RELATED -j ACCEPT",
            f"ip netns exec {ctx.netns} iptables -t nat -A POSTROUTING "
            f"-m mark --mark {mark} -o {wan} -j MASQUERADE",
        ])
        return commands
