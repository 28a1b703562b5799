"""The insertion-ordered flow-state table against the sweeping one.

:class:`repro.switch.state.FlowStateTable` keeps its entries in touch
order and, at capacity, trims the idle front of that order and then
evicts the front entry.  :class:`ReferenceFlowStateTable` below is the
table it replaced — a full ``expire()`` sweep plus a ``min()`` over
``last_seen`` on every insert at capacity — kept here only as an
oracle.  On a strictly increasing clock the two orders coincide, so
every owner and every counter must be equal after every step.
"""

import time
from typing import Callable, Optional

from hypothesis import given, settings, strategies as st

from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.net.builder import ParsedFrame, make_tcp_frame
from repro.switch.actions import flow_hash, flow_key, rendezvous_select
from repro.switch.state import (FlowStateEntry, FlowStateRegistry,
                                FlowStateTable, _established)

SRC = MacAddress("02:aa:00:00:00:01")
DST = MacAddress("02:bb:00:00:00:02")


class ReferenceFlowStateTable:
    """The sweeping table: ``expire()`` plus ``min(last_seen)``."""

    def __init__(self, idle_timeout: float, capacity: int,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.idle_timeout = idle_timeout
        self.capacity = capacity
        self.default_owner: Optional[int] = None
        self._entries: dict = {}
        self._now = clock if clock is not None else time.monotonic
        self.pinned = self.remapped = self.churned = self.adopted = 0
        self.inserted = self.expired = self.evicted = 0

    def steer(self, parsed: ParsedFrame, ports, port_set,
              seeds=None) -> int:
        now = self._now()
        key = flow_key(parsed)
        entries = self._entries
        entry = entries.get(key)
        old_port = None
        if entry is not None:
            if now - entry.last_seen > self.idle_timeout:
                old_port = entry.port
                del entries[key]
                self.expired += 1
            elif entry.port in port_set:
                entry.last_seen = now
                self.pinned += 1
                return entry.port
            else:
                port = rendezvous_select(ports, flow_hash(parsed), seeds)
                entry.port = port
                entry.last_seen = now
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
        if len(entries) >= self.capacity:
            self.expire(now)
            if len(entries) >= self.capacity:
                oldest = min(entries, key=lambda k: entries[k].last_seen)
                del entries[oldest]
                self.evicted += 1
        entries[key] = FlowStateEntry(port, now)
        self.inserted += 1
        return port

    def expire(self, now: Optional[float] = None) -> int:
        if now is None:
            now = self._now()
        horizon = now - self.idle_timeout
        dead = [key for key, entry in self._entries.items()
                if entry.last_seen < horizon]
        for key in dead:
            del self._entries[key]
        self.expired += len(dead)
        return len(dead)

    def owner(self, parsed: ParsedFrame) -> Optional[int]:
        entry = self._entries.get(flow_key(parsed))
        return entry.port if entry is not None else None

    def stats(self) -> dict:
        return {"flows": len(self._entries), "pinned": self.pinned,
                "remapped": self.remapped, "churned": self.churned,
                "adopted": self.adopted, "inserted": self.inserted,
                "expired": self.expired, "evicted": self.evicted}


class Clock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _flow(index: int) -> ParsedFrame:
    """Flow alphabet: UDP, TCP SYN and established TCP (adoptable)."""
    kind = index % 3
    if kind == 0:
        frame = make_udp_frame(SRC, DST, f"10.1.0.{index}", "10.2.0.1",
                               3000 + index, 53, b"x")
    else:
        frame = make_tcp_frame(SRC, DST, f"10.3.0.{index}", "10.4.0.1",
                               4000 + index, 80, b"p",
                               flags=0x02 if kind == 1 else 0x10)
    return parse_frame(frame)


FLOWS = [_flow(index) for index in range(10)]
PORTS = (10, 11, 12, 13)

# One step: advance the clock by a positive delta, then steer a flow
# over a live port subset (remaps happen when a subset drops an owner),
# or sweep the table.
_step = st.tuples(
    st.sampled_from([0.25, 1.0, 3.0, 7.5, 20.0]),
    st.one_of(
        st.tuples(st.just("steer"), st.integers(0, len(FLOWS) - 1),
                  st.sets(st.sampled_from(PORTS), min_size=1)),
        st.tuples(st.just("expire"), st.none(), st.none())))


def _steer(table, flow: int, live) -> int:
    ports = tuple(sorted(live))
    return table.steer(FLOWS[flow], ports, frozenset(ports))


def _assert_same(table, reference) -> None:
    assert table.stats() == reference.stats()
    for parsed in FLOWS:
        assert table.owner(parsed) == reference.owner(parsed)


@given(capacity=st.integers(1, 12),
       idle_timeout=st.sampled_from([0.5, 2.0, 10.0, 45.0]),
       default_owner=st.sampled_from([None, 10, 13]),
       steps=st.lists(_step, max_size=60))
@settings(max_examples=400, deadline=None)
def test_ordered_table_equals_the_sweeping_table(capacity, idle_timeout,
                                                 default_owner, steps):
    clock = Clock()
    table = FlowStateTable(idle_timeout=idle_timeout, capacity=capacity,
                           clock=clock)
    reference = ReferenceFlowStateTable(idle_timeout, capacity, clock)
    table.default_owner = reference.default_owner = default_owner
    for delta, (op, flow, live) in steps:
        clock.now += delta
        if op == "steer":
            assert _steer(table, flow, live) == _steer(reference, flow,
                                                       live)
        else:
            assert table.expire() == reference.expire()
        _assert_same(table, reference)


@given(idle_timeout=st.sampled_from([0.5, 2.0, 10.0]),
       wall=st.lists(st.tuples(st.integers(0, len(FLOWS) - 1),
                               st.sampled_from([0.1, 1.0, 4.0])),
                     min_size=1, max_size=20),
       sim=st.lists(st.tuples(st.integers(0, len(FLOWS) - 1),
                              st.sampled_from([0.1, 1.0, 4.0])),
                    max_size=20),
       later=st.sampled_from([0.0, 1.0, 5.0, 30.0]))
@settings(max_examples=200, deadline=None)
def test_backward_clock_rebind_still_sweeps_every_idle_entry(
        idle_timeout, wall, sim, later):
    """Wall -> sim rebind (``ControlLoop.run_sim``): wall-stamped
    entries sit at the front of the order with ``last_seen`` far in the
    sim clock's future, and sim-stamped idle entries sit behind them.
    ``FlowStateRegistry.expire`` must age exactly what the sweeping
    reference ages.  Capacity holds the whole alphabet, so nothing is
    evicted: the victim legitimately differs once the clock has gone
    backwards."""
    registry = FlowStateRegistry(idle_timeout=idle_timeout,
                                 capacity=len(FLOWS))
    registry.clock = Clock(100_000.0)
    table = registry.table("g/lb")
    reference = ReferenceFlowStateTable(idle_timeout, len(FLOWS),
                                        lambda: registry.clock())
    ports = (10, 11)
    for run, start in ((wall, 100_000.0), (sim, 0.0)):
        registry.clock = clock = Clock(start)
        for flow, delta in run:
            clock.now += delta
            for each in (table, reference):
                each.steer(FLOWS[flow], ports, frozenset(ports))
        _assert_same(table, reference)
    registry.clock.now += later
    assert registry.expire() == reference.expire()
    _assert_same(table, reference)
