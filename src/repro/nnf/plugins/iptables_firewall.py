"""iptables firewall plugin.

Sharable like the NAT plugin; per-graph policy lives in a dedicated
user chain (``FW-<mark>``) reached through a mark-scoped dispatch rule,
so each service graph carries its own rule set inside the single
kernel component.
"""

from __future__ import annotations

from repro.nnf.plugin import NnfPlugin, PluginContext, PluginError
from repro.nnf.plugins._routes import (
    dedicated_address_commands,
    path_address_commands,
    path_routing_commands,
)

__all__ = ["IptablesFirewallPlugin", "parse_port_list"]


def parse_port_list(text: str) -> list[tuple[str, int]]:
    """Parse ``"tcp:22,udp:53"`` into [("tcp", 22), ("udp", 53)]."""
    entries: list[tuple[str, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        proto, _, port_text = chunk.partition(":")
        if proto not in ("tcp", "udp") or not port_text.isdigit():
            raise PluginError(f"bad port spec {chunk!r}")
        entries.append((proto, int(port_text)))
    return entries


class IptablesFirewallPlugin(NnfPlugin):
    name = "iptables-firewall"
    functional_type = "firewall"
    sharable = True
    multi_instance = True
    single_interface = True
    package = "iptables"

    def create_script(self, ctx: PluginContext) -> list[str]:
        return [
            f"ip netns exec {ctx.netns} sysctl -w net.ipv4.ip_forward=1",
            f"ip netns exec {ctx.netns} iptables -P FORWARD DROP",
        ]

    def _policy_rules(self, ctx: PluginContext, chain: str) -> list[str]:
        """ACCEPT/DROP rules for the allow/deny lists in the config."""
        commands = []
        prefix = f"ip netns exec {ctx.netns} iptables"
        allow = ctx.config.get("firewall.allow")
        deny = ctx.config.get("firewall.deny")
        # A repeated port would render two identical rules, and
        # ``iptables -D`` removes the first match, so an update's undo
        # would reorder the chain: render each port once.
        if allow:
            for proto, port in dict.fromkeys(parse_port_list(allow)):
                commands.append(
                    f"{prefix} -A {chain} -p {proto} "
                    f"--dport {port} -j ACCEPT")
            commands.append(
                f"{prefix} -A {chain} -m conntrack "
                f"--ctstate ESTABLISHED,RELATED -j ACCEPT")
            commands.append(f"{prefix} -A {chain} -j DROP")
        elif deny:
            for proto, port in dict.fromkeys(parse_port_list(deny)):
                commands.append(
                    f"{prefix} -A {chain} -p {proto} "
                    f"--dport {port} -j DROP")
            commands.append(f"{prefix} -A {chain} -j ACCEPT")
        else:
            commands.append(f"{prefix} -A {chain} -j ACCEPT")
        return commands

    # -- dedicated mode -----------------------------------------------------------
    def configure_script(self, ctx: PluginContext) -> list[str]:
        commands = dedicated_address_commands(ctx)
        commands.append(
            f"ip netns exec {ctx.netns} iptables -N FW")
        commands.append(
            f"ip netns exec {ctx.netns} iptables -A FORWARD -j FW")
        commands.extend(self._policy_rules(ctx, "FW"))
        return commands

    def start_script(self, ctx: PluginContext) -> list[str]:
        return [f"ip netns exec {ctx.netns} ip link set {dev} up"
                for dev in (ctx.port("lan"), ctx.port("wan"))]

    # -- shared mode ------------------------------------------------------------------
    def add_path_script(self, ctx: PluginContext) -> list[str]:
        if ctx.mark is None:
            raise ValueError("shared path needs a mark")
        lan, wan = ctx.port("lan"), ctx.port("wan")
        mark = ctx.mark
        chain = f"FW-{mark}"
        prefix = f"ip netns exec {ctx.netns} iptables"
        commands = path_address_commands(ctx)
        commands.extend(path_routing_commands(ctx))
        commands.extend([
            f"ip netns exec {ctx.netns} iptables -t mangle -A PREROUTING "
            f"-i {lan} -j MARK --set-mark {mark}",
            f"ip netns exec {ctx.netns} iptables -t mangle -A PREROUTING "
            f"-i {wan} -j MARK --set-mark {mark}",
            f"{prefix} -N {chain}",
            f"{prefix} -A FORWARD -m mark --mark {mark} -j {chain}",
        ])
        commands.extend(self._policy_rules(ctx, chain))
        return commands
