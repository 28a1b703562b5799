"""Shared helpers for plugin scripts: addressing and per-graph routing.

Both mark-sharing L3 plugins (NAT, firewall) isolate per-graph routing
the same way real deployments do: a dedicated routing table per graph
selected by the graph's fwmark, holding the graph's connected subnets
and its default route.
"""

from __future__ import annotations

from repro.net.addresses import int_to_ip, parse_cidr
from repro.nnf.plugin import PluginContext

__all__ = ["dedicated_address_commands", "network_of",
           "path_address_commands", "path_routing_commands"]


def network_of(cidr: str) -> str:
    """``192.168.1.1/24`` -> ``192.168.1.0/24`` (the connected subnet)."""
    network, plen = parse_cidr(cidr)
    return f"{int_to_ip(network)}/{plen}"


def dedicated_address_commands(ctx: PluginContext) -> list[str]:
    """A dedicated instance's lan/wan addresses and default route."""
    lan, wan = ctx.port("lan"), ctx.port("wan")
    commands = [f"ip netns exec {ctx.netns} ip addr add "
                f"{ctx.config[key]} dev {device}"
                for key, device in (("lan.address", lan),
                                    ("wan.address", wan))
                if key in ctx.config]
    if "gateway" in ctx.config:
        commands.append(f"ip netns exec {ctx.netns} ip route add "
                        f"default via {ctx.config['gateway']} dev {wan}")
    return commands


def path_address_commands(ctx: PluginContext) -> list[str]:
    """Per-graph subinterface addresses from lan/wan config keys."""
    commands = []
    for key, port in (("lan.address", "lan"), ("wan.address", "wan")):
        if key in ctx.config and port in ctx.ports:
            commands.append(f"ip netns exec {ctx.netns} ip addr add "
                            f"{ctx.config[key]} dev {ctx.port(port)}")
    return commands


def path_routing_commands(ctx: PluginContext) -> list[str]:
    """Per-graph routing table + fwmark rule (paths stay isolated)."""
    mark = ctx.mark
    commands = []
    for key, port in (("lan.address", "lan"), ("wan.address", "wan")):
        if key in ctx.config and port in ctx.ports:
            commands.append(
                f"ip netns exec {ctx.netns} ip route add "
                f"{network_of(ctx.config[key])} dev {ctx.port(port)} "
                f"table {mark}")
    if "gateway" in ctx.config and "wan" in ctx.ports:
        commands.append(
            f"ip netns exec {ctx.netns} ip route add default "
            f"via {ctx.config['gateway']} dev {ctx.port('wan')} "
            f"table {mark}")
    commands.append(
        f"ip netns exec {ctx.netns} ip rule add fwmark {mark} "
        f"table {mark}")
    return commands
