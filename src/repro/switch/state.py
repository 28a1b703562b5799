"""Per-flow state tables: match -> state -> action for the datapath.

The stateful-forwarding abstraction (OpenState, arXiv:1611.02853)
keeps flow state *in the switch*: a lookup keyed on the flow precedes
the action, the action may update the state, and aging reclaims idle
entries.  Here the abstraction serves one job the paper's NFV node
needs badly: **replica affinity across scale events**.  A rendezvous
hash (:func:`repro.switch.actions.rendezvous_select`) already bounds
churn to ~1/N of flows per replica-set change — but a stateful NF
(NAT, firewall, IPsec) cannot afford even that for *established*
connections.  So every load-balancing hop with a ``group`` consults a
:class:`FlowStateTable`:

* **match** — the exact flow key (:func:`repro.switch.actions.flow_key`:
  full 5-tuple ints for IPv4, the L2 conversation otherwise);
* **state** — the owning replica port plus last-seen time;
* **action** — emit on the owner if it is still in the live port set
  (*pinned*); rendezvous-reselect when the owner left (*remapped*) or
  the entry idled out (*churned* if the fresh choice differs); insert
  on first sight.

First sight of an *established* TCP flow (ACK set, SYN clear) is
special: it predates the state table — the destination was a single
instance before the group first scaled out, so the flow's connection
state lives on the replica that kept the base identity.  The steering
layer records that port as :attr:`FlowStateTable.default_owner` when
it installs a spread, and unknown-but-established flows are adopted
to it instead of being sprayed.  New flows (SYN, or anything the
frame cannot prove established) take the rendezvous choice — that is
the load balancing.

Aging runs on a pluggable clock: wall-monotonic by default, rebound
to the virtual clock by sim-driven control loops (the same contract
as the event journal), so state lifetimes in tests are deterministic.
Tables are bounded (``capacity``).  The entry dict's insertion order
*is* the LRU order: every pin or remap moves its entry to the end, so
the front holds the least recently touched flow.  A new flow arriving
at capacity first trims the idle prefix of that order (counted as
``expired``) and, if the table is still full, evicts the least
recently *touched* entry: no sweep and no scan over live entries.
Touch order, not ``last_seen``, decides: under a coarse clock (sim
ticks stamp a whole batch with one time) the flow just hit is never
the one dropped.  :meth:`FlowStateTable.expire` still sweeps the whole
table, so a clock rebound backwards (wall -> sim) ages every idle
entry, wherever it sits in the order.

Fusion interplay: chain fusion traces *into* a terminal
``SelectOutput`` hop (:class:`repro.switch.fusion.FusedSelectChain`),
but the state decision itself is never baked in — the fused program
calls :meth:`FlowStateTable.steer` per frame in arrival order, on the
very table object the compiled picker would consult, so pins, remaps
and adoptions evolve identically on both paths.  The program holds
that table by identity and refuses to run if the registry dropped or
recreated the group; the steering layer still drops fused chains
around every LB-rule install/uninstall exactly like any other
flow-mod.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

from repro.net.builder import ParsedFrame
from repro.switch.actions import flow_hash, flow_key, rendezvous_select

__all__ = ["FlowStateEntry", "FlowStateRegistry", "FlowStateTable"]

#: Seconds of inactivity before a flow's state entry ages out.
DEFAULT_IDLE_TIMEOUT = 120.0
#: Entries per table before eviction kicks in.
DEFAULT_CAPACITY = 65536

# TCP flag masks for the established test (ACK set, SYN clear).
_TCP_SYN = 0x02
_TCP_ACK = 0x10


class FlowStateEntry:
    """State of one flow: owning port + timestamps."""

    __slots__ = ("port", "born", "last_seen")

    def __init__(self, port: int, now: float) -> None:
        self.port = port
        self.born = now
        self.last_seen = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowStateEntry port={self.port} seen={self.last_seen}>"


def _established(parsed: ParsedFrame) -> bool:
    """Whether the frame proves an already-established connection.

    Only TCP can: ACK without SYN means both ends completed the
    handshake before this frame.  UDP/L2 traffic has no handshake to
    read, so a state-table miss there is treated as a new flow.
    """
    tcp = parsed.tcp
    return (tcp is not None
            and (tcp.flags & (_TCP_SYN | _TCP_ACK)) == _TCP_ACK)


def _check_limits(idle_timeout: float, capacity: int) -> None:
    """Reject table parameters that would break aging or the bound.

    ``idle_timeout`` must be a finite positive number (a NaN horizon
    compares false both ways, so entries would never — or, trimmed at
    capacity, always — look idle); ``capacity`` must be an ``int`` of
    at least 1.
    """
    if (isinstance(idle_timeout, bool)
            or not isinstance(idle_timeout, (int, float))
            or not (idle_timeout > 0 and math.isfinite(idle_timeout))):
        raise ValueError(
            f"idle_timeout must be a finite positive number: "
            f"{idle_timeout!r}")
    if isinstance(capacity, bool) or not isinstance(capacity, int) \
            or capacity < 1:
        raise ValueError(f"capacity must be an int >= 1: {capacity!r}")


class FlowStateTable:
    """One group's flow-state store (see the module docstring)."""

    __slots__ = ("name", "idle_timeout", "capacity", "default_owner",
                 "_entries", "_now", "pinned", "remapped", "churned",
                 "adopted", "inserted", "expired", "evicted")

    def __init__(self, name: str = "",
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 capacity: int = DEFAULT_CAPACITY,
                 clock: Optional[Callable[[], float]] = None) -> None:
        _check_limits(idle_timeout, capacity)
        self.name = name
        self.idle_timeout = idle_timeout
        self.capacity = capacity
        #: The port that owned every flow before this group first
        #: scaled out (replica 0's port); unknown-but-established
        #: flows are adopted here.  None disables adoption.
        self.default_owner: Optional[int] = None
        self._entries: dict = {}
        self._now = clock if clock is not None else time.monotonic
        self.pinned = 0
        self.remapped = 0
        self.churned = 0
        self.adopted = 0
        self.inserted = 0
        self.expired = 0
        self.evicted = 0

    # -- the hot path -----------------------------------------------------------
    def steer(self, parsed: ParsedFrame, ports: "tuple[int, ...]",
              port_set: frozenset,
              seeds: "tuple[int, ...] | None" = None) -> int:
        """match -> state -> action for one frame; returns the port.

        ``ports``/``port_set``/``seeds`` describe the live replica set
        of the select action consulting the table (the caller hoists
        them out of the per-frame path).
        """
        now = self._now()
        key = flow_key(parsed)
        entries = self._entries
        entry = entries.get(key)
        old_port: Optional[int] = None
        if entry is not None:
            if now - entry.last_seen > self.idle_timeout:
                # Aged out mid-conversation gap: forget the owner and
                # treat the flow as fresh (it re-enters below).
                old_port = entry.port
                del entries[key]
                self.expired += 1
            elif entry.port in port_set:
                entry.last_seen = now
                del entries[key]  # to the end: most recently touched
                entries[key] = entry
                self.pinned += 1
                return entry.port
            else:
                # The owner left the replica set (scale-in, heal):
                # the flow must move; rendezvous picks its new home.
                port = rendezvous_select(ports, flow_hash(parsed), seeds)
                entry.port = port
                entry.last_seen = now
                del entries[key]
                entries[key] = entry
                self.remapped += 1
                self.churned += 1
                return port
        if (self.default_owner is not None
                and self.default_owner in port_set
                and _established(parsed)):
            port = self.default_owner
            self.adopted += 1
        else:
            port = rendezvous_select(ports, flow_hash(parsed), seeds)
        if old_port is not None and port != old_port:
            self.churned += 1
        self._insert(key, port, now)
        return port

    def _insert(self, key, port: int, now: float) -> None:
        entries = self._entries
        if len(entries) >= self.capacity:
            # The front of the dict is the least recently touched end:
            # trim its idle prefix, then evict the front if still full.
            horizon = now - self.idle_timeout
            idle = []
            for old_key, entry in entries.items():
                if entry.last_seen >= horizon:
                    break
                idle.append(old_key)
            for old_key in idle:
                del entries[old_key]
            self.expired += len(idle)
            if len(entries) >= self.capacity:
                del entries[next(iter(entries))]
                self.evicted += 1
        entries[key] = FlowStateEntry(port, now)
        self.inserted += 1

    # -- lifecycle --------------------------------------------------------------
    def expire(self, now: Optional[float] = None) -> int:
        """Sweep idle entries; returns how many aged out.

        A full sweep, not the prefix trim of an insert at capacity: after
        the clock is rebound backwards the touch order no longer sorts
        by ``last_seen``, and every idle entry must still go.  Only
        :meth:`FlowStateRegistry.expire` calls it, off the frame path.
        """
        if now is None:
            now = self._now()
        horizon = now - self.idle_timeout
        entries = self._entries
        dead = [key for key, entry in entries.items()
                if entry.last_seen < horizon]
        for key in dead:
            del entries[key]
        self.expired += len(dead)
        return len(dead)

    def owner(self, parsed: ParsedFrame) -> Optional[int]:
        """The recorded owner port of a frame's flow (inspection)."""
        entry = self._entries.get(flow_key(parsed))
        return entry.port if entry is not None else None

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "flows": len(self._entries),
            "pinned": self.pinned,
            "remapped": self.remapped,
            "churned": self.churned,
            "adopted": self.adopted,
            "inserted": self.inserted,
            "expired": self.expired,
            "evicted": self.evicted,
        }


class FlowStateRegistry:
    """A datapath's state tables, one per select group.

    Tables are created on first consultation and *persist across rule
    installs* — that persistence is the whole point: the LB rule id
    changes with every replica count (``@lbN``), but the group id does
    not, so established-flow ownership survives the reinstall.  The
    registry's :attr:`clock` is read dynamically by every table it
    owns; rebinding it (sim-driven control loops) rebases aging for
    all of them at once.
    """

    def __init__(self, name: str = "",
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        _check_limits(idle_timeout, capacity)
        self.name = name
        self.idle_timeout = idle_timeout
        self.capacity = capacity
        self.clock: Callable[[], float] = time.monotonic
        self._tables: dict[str, FlowStateTable] = {}

    def _now(self) -> float:
        return self.clock()

    def table(self, group: str) -> FlowStateTable:
        table = self._tables.get(group)
        if table is None:
            table = FlowStateTable(name=group,
                                   idle_timeout=self.idle_timeout,
                                   capacity=self.capacity,
                                   clock=self._now)
            self._tables[group] = table
        return table

    def peek(self, group: str) -> "FlowStateTable | None":
        """The group's table if it exists, without creating it.

        Fused select tails (:mod:`repro.switch.fusion`) resolve their
        state table once at trace time and re-check its *identity*
        here on every run — a dropped-and-recreated group must fail
        the check rather than silently steer against forgotten state.
        """
        return self._tables.get(group)

    def tables(self) -> "dict[str, FlowStateTable]":
        return dict(self._tables)

    def drop(self, group: str) -> bool:
        """Forget one group's state entirely (graph teardown)."""
        return self._tables.pop(group, None) is not None

    def expire(self, now: Optional[float] = None) -> int:
        """Sweep idle entries in every table; returns total aged out."""
        return sum(table.expire(now) for table in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def stats(self) -> dict:
        """Aggregated counters over every group (telemetry view)."""
        totals = {"groups": len(self._tables), "flows": 0, "pinned": 0,
                  "remapped": 0, "churned": 0, "adopted": 0,
                  "inserted": 0, "expired": 0, "evicted": 0}
        for table in self._tables.values():
            for key, value in table.stats().items():
                totals[key] += value
        return totals
