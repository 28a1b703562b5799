"""Adaptation layer for single-interface NNFs.

Paper §2: "an additional adaptation layer is required to cope with the
fact that NNFs may be designed to receive traffic from a single network
interface.  Such layer attaches the NNF to one port of the switch and
configures it to receive the traffic from multiple service graphs,
appropriately marked to make it distinguishable."

Realisation (matching how this is done on real Linux):

* the shared NNF namespace has one trunk device (``mux0``) attached to
  one LSI port;
* each (graph, logical-port) pair gets a VLAN id; the steering layer
  pushes the VLAN before the NNF port and pops it after;
* inside the namespace, 802.1Q subinterfaces (``mux0.<vid>``) demux the
  trunk, so the component sees one plain interface per graph-port and
  plugin rules key on interface names — the "marking mechanism".
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AdaptationLayer", "GraphAttachment"]

#: First VLAN id handed out; low ids are left for operator use.
_VID_BASE = 101


@dataclass
class GraphAttachment:
    """Result of attaching one graph to the shared NNF.  ``path`` holds
    each add-path command once it succeeded, so a detach undoes a
    half-built path exactly."""

    graph_id: str
    mark: int
    port_vids: dict[str, int]       # logical port -> VLAN id
    port_devices: dict[str, str]    # logical port -> subinterface name
    path: list[str] = field(default_factory=list)


class AdaptationLayer:
    """VLAN id and subinterface bookkeeping for one shared NNF instance."""

    def __init__(self, trunk_device: str = "mux0",
                 vid_base: int = _VID_BASE) -> None:
        self.trunk_device = trunk_device
        self._next_vid = vid_base
        self._next_mark = 1
        self._attachments: dict[str, GraphAttachment] = {}

    # -- attachment --------------------------------------------------------------
    def attach_graph(self, graph_id: str,
                     logical_ports: list[str]) -> GraphAttachment:
        if graph_id in self._attachments:
            raise ValueError(f"graph {graph_id!r} already attached")
        if not logical_ports:
            raise ValueError("attachment needs at least one logical port")
        mark = self._next_mark
        self._next_mark += 1
        vids: dict[str, int] = {}
        devices: dict[str, str] = {}
        for port in logical_ports:
            vid = self._next_vid
            self._next_vid += 1
            if vid > 4094:
                raise OverflowError("VLAN id space exhausted on this NNF")
            vids[port] = vid
            devices[port] = f"{self.trunk_device}.{vid}"
        attachment = GraphAttachment(graph_id=graph_id, mark=mark,
                                     port_vids=vids, port_devices=devices)
        self._attachments[graph_id] = attachment
        return attachment

    def detach_graph(self, graph_id: str) -> GraphAttachment:
        try:
            return self._attachments.pop(graph_id)
        except KeyError:
            raise KeyError(f"graph {graph_id!r} not attached") from None

    @property
    def graphs(self) -> list[str]:
        return sorted(self._attachments)

    # -- namespace-side commands ------------------------------------------------
    def subinterface_commands(self, netns: str,
                              attachment: GraphAttachment) -> list[str]:
        """Create and raise the per-graph subinterfaces in the NNF netns."""
        commands = []
        for port, vid in sorted(attachment.port_vids.items()):
            device = attachment.port_devices[port]
            commands.append(
                f"ip netns exec {netns} ip link add link "
                f"{self.trunk_device} name {device} type vlan id {vid}")
            commands.append(
                f"ip netns exec {netns} ip link set {device} up")
        return commands

    def teardown_commands(self, netns: str,
                          attachment: GraphAttachment) -> list[str]:
        return [
            f"ip netns exec {netns} ip link del "
            f"{attachment.port_devices[port]}"
            for port in sorted(attachment.port_vids)
        ]
