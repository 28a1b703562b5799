"""Logical Switch Instances and the virtual links that join them.

Figure 1 of the paper: LSI-0 (the base LSI) owns the node's physical
ports and classifies traffic into per-graph LSIs over *virtual links*;
each graph LSI owns the ports of the NFs in that graph.

Per-frame :meth:`VirtualLink.carry` feeds the far datapath's reference
``process``; batched :meth:`VirtualLink.carry_batch` hands over the
near side's carried :class:`ParsedFrame` views as they are.  Fused
chains (:mod:`repro.switch.fusion`) cross links without calling
either and settle ``carried`` arithmetically.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.net.builder import ParsedFrame
from repro.net.ethernet import EthernetFrame
from repro.switch.datapath import Datapath, SwitchPort

__all__ = ["LogicalSwitchInstance", "VirtualLink"]

_dpids = itertools.count(0x100)


class LogicalSwitchInstance:
    """One LSI: a datapath plus its role metadata.

    ``graph_id`` is ``None`` for the base LSI (LSI-0) and the NF-FG id
    for per-graph LSIs.
    """

    def __init__(self, name: str, graph_id: Optional[str] = None,
                 dpid: Optional[int] = None) -> None:
        self.name = name
        self.graph_id = graph_id
        self.datapath = Datapath(dpid if dpid is not None else next(_dpids),
                                 name=name)
        self.controller = None  # set by repro.openflow.controller

    @property
    def is_base(self) -> bool:
        return self.graph_id is None

    def __repr__(self) -> str:
        role = "base" if self.is_base else f"graph {self.graph_id}"
        return f"<LSI {self.name} ({role})>"


class VirtualLink:
    """Patch cable between a port on one datapath and a port on another."""

    def __init__(self, name: str = "vlink") -> None:
        self.name = name
        self.a: Optional[SwitchPort] = None
        self.b: Optional[SwitchPort] = None
        self.carried = 0

    @classmethod
    def connect(cls, dp_a: Datapath, dp_b: Datapath,
                name: str = "vlink") -> "VirtualLink":
        """Create the link and one port on each datapath."""
        link = cls(name=name)
        port_a = dp_a.add_port(f"{name}-{dp_b.name}")
        port_b = dp_b.add_port(f"{name}-{dp_a.name}")
        link.attach(port_a, port_b)
        return link

    def attach(self, port_a: SwitchPort, port_b: SwitchPort) -> None:
        if self.a is not None or self.b is not None:
            raise ValueError(f"virtual link {self.name} already attached")
        if port_a.device is not None or port_b.device is not None:
            raise ValueError("virtual link ports cannot wrap devices")
        self.a = port_a
        self.b = port_b
        port_a.peer_link = self
        port_b.peer_link = self
        self._invalidate_fusion()

    def detach(self) -> None:
        for port in (self.a, self.b):
            if port is not None:
                port.peer_link = None
        self._invalidate_fusion()
        self.a = None
        self.b = None

    def _invalidate_fusion(self) -> None:
        """Rewiring a link changes chain topology: drop fused programs
        on both endpoints' datapaths.  (Chains *through* these LSIs
        whose ingress lies elsewhere are caught by the flush-time
        validity check — ``peer_link`` identity is part of it.)"""
        for port in (self.a, self.b):
            if port is not None and port.datapath is not None:
                fusion = port.datapath.fusion
                if fusion.traced or fusion.dispatch:  # else: nothing to drop
                    fusion.invalidate()

    def _far(self, from_port: SwitchPort) -> Optional[SwitchPort]:
        if from_port is self.a:
            return self.b
        if from_port is self.b:
            return self.a
        raise ValueError("frame from a port not on this link")

    def carry(self, from_port: SwitchPort, frame: EthernetFrame) -> None:
        """Move a frame to the far end and process it there."""
        far = self._far(from_port)
        if far is None or far.datapath is None:
            return
        self.carried += 1
        far.datapath.process(far.port_no, frame)

    def carry_batch(self, from_port: SwitchPort,
                    frames: "list[ParsedFrame | EthernetFrame]") -> None:
        """Move a whole batch to the far end in one pipeline pass.

        This is what keeps a chain of LSIs batch-at-a-time: the far
        datapath receives the frames through
        :meth:`~repro.switch.datapath.Datapath.process_batch_from`, so
        lookup, compiled-action execution and flow/port counter
        amortization carry across every hop.  The frames are normally
        :class:`~repro.net.builder.ParsedFrame` views queued by the
        near datapath's batch flush, forwarded *as parsed* — the far
        LSI never re-parses an untouched frame.  The link's own
        ``carried`` counter and the egress port's tx counters are
        likewise written once per batch, not per frame (chain egress
        happens in the far datapath's batch flush).
        """
        if not frames:
            return
        far = self._far(from_port)
        if far is None or far.datapath is None:
            return
        self.carried += len(frames)
        far.datapath.process_batch_from(far.port_no, frames)

    def far_port(self, datapath: Datapath) -> SwitchPort:
        """The link's port that lives on ``datapath``."""
        if self.a is not None and self.a.datapath is datapath:
            return self.a
        if self.b is not None and self.b.datapath is datapath:
            return self.b
        raise ValueError(f"link {self.name} has no port on {datapath.name}")
