"""Connection tracking (a minimal nf_conntrack).

NAT in Linux consults the ``nat`` table only for the first packet of a
connection; every later packet — in both directions — is translated
from the conntrack entry.  The sharable-NNF design in the paper leans
on the same machinery via CONNMARK, so marks are first-class here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = ["ConnState", "ConnTrack", "ConnTrackEntry", "FlowTuple"]


@dataclass(frozen=True, slots=True)
class FlowTuple:
    """Directional 5-tuple."""

    src_ip: str
    dst_ip: str
    proto: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FlowTuple":
        return FlowTuple(src_ip=self.dst_ip, dst_ip=self.src_ip,
                         proto=self.proto, src_port=self.dst_port,
                         dst_port=self.src_port)


class ConnState(Enum):
    NEW = "NEW"
    ESTABLISHED = "ESTABLISHED"
    RELATED = "RELATED"


@dataclass(slots=True)
class ConnTrackEntry:
    """One tracked connection.

    ``orig`` is the tuple of the first packet; ``reply`` is the tuple
    reply packets carry *after* any NAT (i.e. the inverted post-NAT
    tuple).  ``mark`` is the connection mark CONNMARK reads/writes.
    """

    orig: FlowTuple
    reply: FlowTuple
    state: ConnState = ConnState.NEW
    mark: int = 0
    packets: int = 0
    snat: Optional[tuple[str, int]] = None  # (new_src_ip, new_src_port)
    dnat: Optional[tuple[str, int]] = None  # (new_dst_ip, new_dst_port)

    def tuple_for(self, direction: str) -> FlowTuple:
        return self.orig if direction == "orig" else self.reply


class ConnTrack:
    """Connection table keyed by directional tuples.

    Each entry is indexed under its ``orig`` and its ``reply`` tuple;
    the direction a tuple names is read off the entry, not stored.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        self.max_entries = max_entries
        self._by_tuple: dict[FlowTuple, ConnTrackEntry] = {}
        self.insert_failures = 0

    def __len__(self) -> int:
        # Each entry is registered under both directions.
        return len(self._by_tuple) // 2 + len(self._by_tuple) % 2

    def lookup(self, flow: FlowTuple) -> Optional[tuple[ConnTrackEntry, str]]:
        """Return ``(entry, direction)``; direction is 'orig' or 'reply'.

        A tuple that is both (a self-reverse flow) reads as 'reply', the
        direction its entry registered last.
        """
        entry = self._by_tuple.get(flow)
        if entry is None:
            return None
        return entry, "reply" if entry.reply == flow else "orig"

    def create(self, flow: FlowTuple) -> ConnTrackEntry:
        """Track a NEW connection seen in direction ``orig``."""
        if len(self._by_tuple) // 2 >= self.max_entries:
            self.insert_failures += 1
            raise OverflowError("conntrack table full")
        entry = ConnTrackEntry(orig=flow, reply=flow.reversed())
        self._by_tuple[flow] = entry
        self._by_tuple[entry.reply] = entry
        return entry

    def apply_nat(self, entry: ConnTrackEntry) -> None:
        """Re-index the reply direction after NAT was decided.

        With SNAT the reply arrives addressed to the NAT address; with
        DNAT the reply originates from the real (translated) server.
        """
        del self._by_tuple[entry.reply]
        src_ip, src_port = entry.orig.src_ip, entry.orig.src_port
        dst_ip, dst_port = entry.orig.dst_ip, entry.orig.dst_port
        if entry.snat is not None:
            src_ip = entry.snat[0]
            src_port = entry.snat[1] or src_port  # port 0 = keep original
        if entry.dnat is not None:
            dst_ip = entry.dnat[0]
            dst_port = entry.dnat[1] or dst_port
        entry.reply = FlowTuple(src_ip=dst_ip, dst_ip=src_ip,
                                proto=entry.orig.proto,
                                src_port=dst_port, dst_port=src_port)
        self._by_tuple[entry.reply] = entry

    def confirm(self, entry: ConnTrackEntry) -> None:
        """First reply (or second orig) packet establishes the flow."""
        entry.state = ConnState.ESTABLISHED

    def remove(self, entry: ConnTrackEntry) -> None:
        self._by_tuple.pop(entry.orig, None)
        self._by_tuple.pop(entry.reply, None)

    def flush(self) -> None:
        self._by_tuple.clear()

    def entries(self) -> list[ConnTrackEntry]:
        return [entry for flow, entry in self._by_tuple.items()
                if entry.reply != flow]
