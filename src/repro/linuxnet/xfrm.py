"""Kernel IPsec: XFRM states and policies.

strongSwan's performance trick — the one the paper calls out as "very
common among NFs" — is that the daemon only negotiates keys; per-packet
ESP work happens in the kernel via the XFRM framework.  The namespace
stack consults this database on output (policy direction OUT) and on
ESP input (state lookup by destination+SPI, then policy direction IN).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.ipsec.sa import SecurityAssociation
from repro.net.addresses import ip_to_int, parse_cidr
from repro.net.ipv4 import IPv4Packet

__all__ = ["XfrmDb", "XfrmDirection", "XfrmPolicy", "XfrmState"]


class XfrmDirection(Enum):
    IN = "in"
    OUT = "out"
    FWD = "fwd"


@dataclass(frozen=True)
class Selector:
    """Traffic selector: which inner packets the policy covers."""

    src_cidr: str
    dst_cidr: str
    proto: Optional[int] = None

    def covers(self, packet: IPv4Packet) -> bool:
        if self.proto is not None and packet.proto != self.proto:
            return False
        return (_cidr_contains(self.src_cidr, packet.src)
                and _cidr_contains(self.dst_cidr, packet.dst))


def _cidr_contains(cidr: str, address: str) -> bool:
    network, plen = parse_cidr(cidr)
    if plen == 0:
        return True
    shift = 32 - plen
    return (ip_to_int(address) >> shift) == (network >> shift)


@dataclass
class XfrmState:
    """One installed SA (``ip xfrm state`` entry)."""

    sa: SecurityAssociation

    @property
    def key(self) -> tuple[str, int]:
        return (self.sa.dst, self.sa.spi)


@dataclass
class XfrmPolicy:
    """One ``ip xfrm policy`` entry binding a selector to a tunnel.

    ``tmpl_src``/``tmpl_dst`` name the outer endpoints; the matching
    state supplies keys.  ``priority``: lower wins, mirroring the kernel.
    """

    selector: Selector
    direction: XfrmDirection
    tmpl_src: str
    tmpl_dst: str
    priority: int = 0


class XfrmDb:
    """Per-namespace security policy + association database."""

    def __init__(self) -> None:
        self._states: dict[tuple[str, int], XfrmState] = {}
        self._policies: list[XfrmPolicy] = []
        self.lookups = 0
        self.misses = 0

    # -- states ------------------------------------------------------------
    def add_state(self, state: XfrmState) -> None:
        if state.key in self._states:
            raise ValueError(
                f"xfrm state for dst={state.sa.dst} spi={state.sa.spi:#x} "
                "already installed")
        self._states[state.key] = state

    def find_state(self, dst: str, spi: int) -> Optional[XfrmState]:
        return self._states.get((dst, spi))

    def find_state_for_endpoints(self, src: str,
                                 dst: str) -> Optional[XfrmState]:
        """Outbound lookup: any state whose outer endpoints match."""
        for state in self._states.values():
            if state.sa.src == src and state.sa.dst == dst:
                return state
        return None

    def states(self) -> list[XfrmState]:
        return list(self._states.values())

    # -- policies ------------------------------------------------------------
    def add_policy(self, policy: XfrmPolicy) -> None:
        self._policies.append(policy)
        self._policies.sort(key=lambda p: p.priority)

    def policies(self) -> list[XfrmPolicy]:
        return list(self._policies)

    def lookup_policy(self, packet: IPv4Packet,
                      direction: XfrmDirection) -> Optional[XfrmPolicy]:
        self.lookups += 1
        for policy in self._policies:
            if policy.direction is direction and policy.selector.covers(packet):
                return policy
        self.misses += 1
        return None

    def flush_states(self) -> None:
        self._states.clear()

    def flush_policies(self) -> None:
        self._policies.clear()
