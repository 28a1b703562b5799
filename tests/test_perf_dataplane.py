"""Dataplane fast-path gates: lookup, chain traversal, invalidation, churn.

Every gate here is exact except one: the unsampled-tracing overhead
budget, the only timing gate the repo keeps.  Absolute throughput is
``benchmarks/nfbench``'s job.  Each gate is a helper that asserts, so
the ``*_catch_*`` tests can inject one regression into the mechanism
with ``monkeypatch`` and show the same helper fails.
"""

import random
import time

import pytest

from repro.linuxnet import VethPair
from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.net.builder import make_tcp_frame
from repro.switch import (
    Datapath,
    FlowEntry,
    FlowMatch,
    FlowTable,
    Output,
    SelectOutput,
    flow_key,
)
from repro.telemetry.tracing import Tracer

from tests.test_chain_fusion import _build_chain, _frames

_MAC_A = MacAddress("02:00:00:00:00:01")
_MAC_B = MacAddress("02:00:00:00:00:02")

#: Ingress ports the synthetic steering layer spreads entries over.
_N_PORTS = 8
#: One wildcard (CIDR) entry per this many exact entries.
_WILDCARD_EVERY = 50

#: An attached tracer whose 1-in-N sampler does not fire may cost at
#: most 3 % of dispatch-fused chain throughput.
TRACING_OVERHEAD_FLOOR = 0.97


# -- lookup -------------------------------------------------------------------------

def _vid(index):
    """Unique (port, vlan) pair per entry index, steering-style."""
    return 100 + (index // _N_PORTS) % 3900


def _port(index):
    return 1 + index % _N_PORTS


def build_steering_table(size):
    """A table shaped like the steering layer's output at ``size`` entries.

    Mostly exact ``(in_port, vlan_vid)`` entries (what the steering
    layer emits for inter-LSI segments), plus a low-priority CIDR
    wildcard every :data:`_WILDCARD_EVERY` entries (endpoint
    classification rules).
    """
    table = FlowTable()
    for index in range(size):
        table.add(FlowEntry(
            match=FlowMatch(in_port=_port(index), vlan_vid=_vid(index)),
            actions=(Output(200),), priority=100))
        if index % _WILDCARD_EVERY == 0:
            table.add(FlowEntry(
                match=FlowMatch(in_port=_port(index),
                                ip_dst=f"10.{index % 200}.0.0/16"),
                actions=(Output(201),), priority=10))
    return table


def _steering_frames(size, packets, seed):
    """(in_port, ParsedFrame) pairs hitting installed entries."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(packets):
        index = rng.randrange(max(size, 1))
        frame = make_udp_frame(
            _MAC_A, _MAC_B, f"10.{index % 200}.0.1", "10.200.0.2",
            4000, 5001, b"x", vlan=_vid(index))
        pairs.append((_port(index), parse_frame(frame)))
    return pairs


def _check_lookup(size, packets=200, seed=7):
    """Lookup returns the reference scan's winner for every frame and
    evaluates at most two match predicates per lookup: the index (or
    the small-table pre-filter) reaches the winner without walking the
    table.  A linear walk at 1k entries evaluates hundreds."""
    table = build_steering_table(size)
    workload = _steering_frames(size, packets, seed)
    evaluated = [0]
    with pytest.MonkeyPatch.context() as patch:
        for name in ("hits", "hits_reference"):
            def counting(match, in_port, parsed,
                         _original=getattr(FlowMatch, name)):
                evaluated[0] += 1
                return _original(match, in_port, parsed)
            patch.setattr(FlowMatch, name, counting)
        winners = [table.lookup(in_port, parsed, count=False)
                   for in_port, parsed in workload]
    for (in_port, parsed), winner in zip(workload, winners):
        assert winner is not None
        assert winner is table.lookup_linear(in_port, parsed)
    assert evaluated[0] <= 2 * packets, (
        f"lookup regressed: {evaluated[0] / packets:.1f} match predicates "
        f"per lookup on a {size}-entry table")


def test_sweep_lookup_shape():
    """Both sides of the small-table bypass threshold (16) and a
    1k-entry table, where the old sweep held indexed lookup to 10x the
    linear scan."""
    for size in (4, 16, 1000):
        _check_lookup(size)


def test_quick_gates_catch_lookup_regression(monkeypatch):
    """A lookup that degrades to the linear scan still returns the
    right winners, and only the predicate count sees it."""
    monkeypatch.setattr(
        FlowTable, "_select",
        lambda table, in_port, parsed: table.lookup_linear(in_port, parsed))
    with pytest.raises(AssertionError, match="lookup regressed"):
        _check_lookup(1000)


def test_fast_path_parse_cidr_free(monkeypatch):
    """With the index active and CIDR wildcards installed, no lookup
    parses a CIDR string — not even one that falls through to a
    wildcard, in either namespace ``parse_cidr`` is reachable from."""
    from repro.net import addresses
    from repro.switch import flowtable

    table = build_steering_table(64)
    assert table.index_active
    workload = _steering_frames(64, 30, seed=3)
    # Port 1 on an uninstalled VLAN falls through to the CIDR wildcard
    # of entry 0 (10.0.0.0/16).
    wildcard_frame = parse_frame(make_udp_frame(
        _MAC_A, _MAC_B, "10.9.9.9", "10.0.0.9", 1, 2, b"x", vlan=4000))

    def explode(cidr):
        raise AssertionError(f"parse_cidr({cidr!r}) on the fast path")

    monkeypatch.setattr(flowtable, "parse_cidr", explode)
    monkeypatch.setattr(addresses, "parse_cidr", explode)
    for in_port, parsed in workload:
        assert table.lookup(in_port, parsed, count=False).actions == \
            (Output(200),)
    assert table.lookup(1, wildcard_frame, count=False).actions == \
        (Output(201),)


# -- chain traversal ----------------------------------------------------------------

def _check_chain_modes(length, packets=40):
    """Per-frame ``process``, per-hop batches with fusion off, and the
    production path (fusion plus dispatch) each carry every frame to
    the sink; on a multi-hop chain the production path runs every
    frame fused through a dispatch slot, and a single hop never fuses
    (its per-hop path is already optimal)."""
    hops = _build_chain(length)
    first = hops[0]
    engine = first.fusion
    frames = _frames(packets)
    for frame in frames:
        first.process(1, frame)
    for hop in hops:
        hop.fusion.enabled = False
    first.process_batch_from(1, frames)
    for hop in hops:
        hop.fusion.enabled = True
    hits, dispatch_hits = engine.hits, engine.dispatch_hits
    first.process_batch_from(1, frames)
    sink = hops[-1].port_by_name("sink")
    assert sink.tx_packets == 3 * packets, (
        f"chain {length}: sink saw {sink.tx_packets}/{3 * packets} frames")
    if length == 1:
        assert engine.hits == hits, "a single-hop chain fused"
    else:
        assert engine.hits - hits == packets, (
            f"chain {length}: fusion never engaged for "
            f"{packets - (engine.hits - hits)}/{packets} frames")
        assert engine.dispatch_hits - dispatch_hits == packets


def test_sweep_chain_delivers_everything():
    for length in (1, 3):
        _check_chain_modes(length)


def test_chain_never_reparses_untouched_frames(monkeypatch):
    """On a plain ``Output`` chain a dispatch-hit frame reaches the
    terminal without one ``parse_frame`` call; the per-hop path (fusion
    off, or a single hop) parses each frame exactly once, at ingress,
    and carries the parse down the chain."""
    from repro.switch import datapath as datapath_module

    calls = []
    original = datapath_module.parse_frame

    def counting(frame):
        calls.append(frame)
        return original(frame)

    monkeypatch.setattr(datapath_module, "parse_frame", counting)
    for length in (1, 2, 4):
        for fused in (True, False):
            hops = _build_chain(length)
            for hop in hops:
                hop.fusion.enabled = fused
            calls.clear()
            hops[0].process_batch_from(1, _frames(25))
            assert hops[-1].port_by_name("sink").tx_packets == 25
            if fused and length > 1:
                assert hops[0].fusion.dispatch_hits == 25
                assert hops[0].fusion.hits == 25
                assert len(calls) == 0, (length, len(calls))
            else:
                assert len(calls) == 25, (length, fused, len(calls))


# -- invalidation -------------------------------------------------------------------

def _check_fused_invalidation(packets=30):
    """A chain-2 batch fuses; then a flow-mod written straight into the
    downstream table retargets the terminal at a new sink.  No steering
    hook fires, so only the flush-time validity check stands between
    the stale program and the wire: the next batch must fall back and
    reach the new sink only, and the one after must re-fuse."""
    first, last = _build_chain(2)
    engine = first.fusion
    frames = _frames(packets)
    old_sink = last.port_by_name("sink")
    first.process_batch_from(1, frames)
    assert engine.hits == packets

    new_sink = last.add_port("sink2")
    terminal = next(iter(last.table))
    last.install(FlowEntry(match=terminal.match,
                           actions=(Output(new_sink.port_no),),
                           priority=terminal.priority))
    first.process_batch_from(1, frames)
    stale = old_sink.tx_packets - packets
    assert stale == 0, f"{stale} frames left through a stale fused chain"
    assert new_sink.tx_packets == packets  # the fallback delivered all
    assert engine.invalidations >= 1 and engine.hits == packets

    first.process_batch_from(1, frames)
    assert engine.hits == 2 * packets, "the chain did not re-fuse"
    assert new_sink.tx_packets == 2 * packets


def test_fused_invalidation_check_is_clean():
    _check_fused_invalidation()


def test_quick_gates_catch_fusion_regressions(monkeypatch):
    """A tracer that rejects every chain, and a flush that skips the
    validity check, each fail their gate."""
    from repro.switch.fusion import FusedChain, FusionEngine

    with monkeypatch.context() as patch:
        patch.setattr(FusionEngine, "_trace", lambda engine, entry: None)
        with pytest.raises(AssertionError, match="fusion never engaged"):
            _check_chain_modes(3)
    with monkeypatch.context() as patch:
        patch.setattr(FusedChain, "valid", lambda program: True)
        with pytest.raises(AssertionError, match="stale fused chain"):
            _check_fused_invalidation()


# -- tracing overhead ---------------------------------------------------------------

def _check_tracing_overhead(tracer, packets=800):
    """``tracer``, attached and never sampling, keeps
    :data:`TRACING_OVERHEAD_FLOOR` of detached chain-4 dispatch-fused
    throughput.

    Both legs push the same frames through the same chain.  Pairs
    alternate which leg runs first so drift cancels, each leg keeps its
    best time, and noise can only lower the ratio, so further rounds
    run while it sits under the floor.
    """
    frames = _frames(packets)
    hops = _build_chain(4)
    first = hops[0]
    sink = hops[-1].port_by_name("sink")
    first.process_batch_from(1, frames[:16])  # fuse before timing
    best_detached = best_traced = float("inf")
    pairs = 0
    for round_no in range(6):
        if round_no:
            time.sleep(0.002)  # step out of whatever busy window hit us
        for _ in range(5):
            legs = (None, tracer) if pairs % 2 == 0 else (tracer, None)
            for leg in legs:
                for hop in hops:
                    hop.tracer = leg
                start = time.perf_counter()
                first.process_batch_from(1, frames)
                elapsed = time.perf_counter() - start
                if leg is None:
                    best_detached = min(best_detached, elapsed)
                else:
                    best_traced = min(best_traced, elapsed)
            pairs += 1
        if best_detached / best_traced >= TRACING_OVERHEAD_FLOOR:
            break
    assert sink.tx_packets == 16 + 2 * pairs * packets
    # A sampled batch would time span construction, not the guard.
    assert tracer.sampled_batches == 0, (
        f"the sampler fired {tracer.sampled_batches} times in the timed "
        "leg: measurement invalid")
    ratio = best_detached / best_traced
    assert ratio >= TRACING_OVERHEAD_FLOOR, (
        f"tracing overhead too high: traced-unsampled chain-4 ran at "
        f"{100 * ratio:.1f}% of the detached baseline after {pairs} pairs")


def _check_sampler_engages():
    """A 1-in-1 tracer on a fused chain really records."""
    hops = _build_chain(4)
    tracer = Tracer(sample_every=1)
    for hop in hops:
        hop.tracer = tracer
    hops[0].process_batch_from(1, _frames(32))
    assert tracer.sampled_batches > 0 and tracer.flight.recorded > 0, (
        "the 1-in-1 sampler never engaged")


def test_quick_smoke_no_regression_gates():
    """The unsampled hot path is one attribute read and a counter
    compare per batch, cheap enough to leave on."""
    _check_tracing_overhead(Tracer(sample_every=64))
    _check_sampler_engages()


class _SlowGuardTracer(Tracer):
    """Charges 1 ms for every read of the per-batch sampling counter."""

    @property
    def batch_counter(self):
        time.sleep(0.001)
        return self._batch_counter

    @batch_counter.setter
    def batch_counter(self, value):
        self._batch_counter = value


def test_quick_gates_catch_tracing_overhead_regressions(monkeypatch):
    """A costly unsampled path, a sampler firing inside the timed leg,
    and a sampler that records nothing each fail their gate."""
    with pytest.raises(AssertionError, match="tracing overhead too high"):
        _check_tracing_overhead(_SlowGuardTracer(sample_every=64))
    with pytest.raises(AssertionError, match="measurement invalid"):
        _check_tracing_overhead(Tracer(sample_every=1))
    monkeypatch.setattr(Tracer, "begin_batch", lambda tracer, lsi: None)
    with pytest.raises(AssertionError, match="never engaged"):
        _check_sampler_engages()


# -- replica churn ------------------------------------------------------------------

def _check_remap_ladder(flows=600, max_replicas=3, seed=3):
    """Rendezvous spread over a seeded flow population, replica ladder
    1 -> N -> 1: every step remaps at most 1/min(N, N') of the flows,
    plus 5 % sampling slack (modulo hashing moved ~(N-1)/N)."""
    from repro.switch import actions

    rng = random.Random(seed)
    population = [rng.randrange(1 << 32) for _ in range(flows)]
    ports = tuple(10 + i for i in range(max_replicas))
    ladder = [ports[:n] for n in range(1, max_replicas + 1)]
    ladder += ladder[-2::-1]
    owners = [actions.rendezvous_select(ladder[0], flow)
              for flow in population]
    for previous, live in zip(ladder, ladder[1:]):
        new_owners = [actions.rendezvous_select(live, flow)
                      for flow in population]
        moved = sum(1 for old, new in zip(owners, new_owners) if old != new)
        bound = 1.0 / min(len(previous), len(live))
        assert moved / flows <= bound + 0.05, (
            f"{len(previous)} -> {len(live)} replicas remapped "
            f"{moved}/{flows} flows (bound {bound:.2f})")
        owners = new_owners


def _check_scale_cycle(phase1_flows=10, phase2_flows=20, data_frames=1,
                       seed=3):
    """A 1 -> 3 -> 1 replica cycle on one datapath against NAT-style
    per-replica state.

    Forwarding mirrors what the steering layer installs at each replica
    count: plain ``Output`` at one, a stateful ``SelectOutput`` whose
    ``default_owner`` is replica 0 at three.  A replica only knows flows
    whose SYN it saw, so a data frame landing anywhere else is a broken
    connection.  Phase-1 flows open on one replica, keep talking across
    the spread (they must be adopted by replica 0) and after the drain;
    phase-2 flows open, talk and finish across the spread.
    """
    group = "churn-probe/nat:out"
    dp = Datapath(0xC000, name="churnprobe")
    dp.add_port("ingress")
    replica_ports, known, delivered, broken = [], [], [], []

    def capture_for(index):
        def capture(device, frame):
            parsed = parse_frame(frame)
            key = flow_key(parsed)
            if parsed.tcp.flags & 0x02:  # SYN creates state
                known[index].add(key)
            elif key not in known[index]:
                broken.append((index, key))
            delivered[index] += 1
        return capture

    for index in range(3):
        known.append(set())
        delivered.append(0)
        pair = VethPair(f"cp{index}-sw", f"cp{index}-nf")
        replica_ports.append(
            dp.add_port(f"replica{index}", device=pair.a).port_no)
        pair.b.attach_handler(capture_for(index))
        pair.b.set_up()

    src = MacAddress("02:cd:00:00:00:01")
    dst = MacAddress("02:cd:00:00:00:02")
    rng = random.Random(seed)

    def send(flows, flags, shuffle=False):
        flows = list(flows)
        if shuffle:
            rng.shuffle(flows)
        for i in flows:
            dp.process(1, make_tcp_frame(
                src, dst, f"10.{i % 200}.{i // 200}.1", "10.99.0.1",
                2000 + i, 80, b"d" if flags & 0x10 else b"", flags=flags))

    def install_single():
        dp.install(FlowEntry(match=FlowMatch(in_port=1),
                             actions=(Output(replica_ports[0]),)))

    def install_spread():
        dp.flow_state.table(group).default_owner = replica_ports[0]
        dp.install(FlowEntry(
            match=FlowMatch(in_port=1),
            actions=(SelectOutput(tuple(replica_ports), group=group),)))

    phase1 = range(phase1_flows)
    phase2 = range(phase1_flows, phase1_flows + phase2_flows)
    install_single()
    send(phase1, 0x02)                                  # SYN
    send(phase1, 0x10)                                  # first data
    install_spread()
    for _ in range(data_frames):
        send(phase1, 0x10, shuffle=True)
    send(phase2, 0x02)
    for _ in range(data_frames):
        send(phase2, 0x18, shuffle=True)
    send(phase2, 0x11)                                  # FIN/ACK
    spread = list(delivered)
    install_single()
    send(phase1, 0x10)

    assert not broken, f"{len(broken)} connections broke across the cycle"
    assert all(spread), f"the spread left a replica idle: {spread}"
    state = dp.flow_state.table(group).stats()
    assert state["adopted"] == phase1_flows, (
        f"only {state['adopted']}/{phase1_flows} pre-scale flows adopted")
    assert state["pinned"] > 0


def test_churn_bench_legs_directly():
    _check_remap_ladder()
    _check_scale_cycle()


def test_quick_gates_catch_churn_regressions(monkeypatch):
    """A modulo spread in place of rendezvous hashing, and a state
    table that adopts nothing, each fail their gate."""
    from repro.switch import actions, state

    with monkeypatch.context() as patch:
        patch.setattr(actions, "rendezvous_select",
                      lambda ports, flow, seeds=None:
                      ports[flow % len(ports)])
        with pytest.raises(AssertionError, match="remapped"):
            _check_remap_ladder()
    with monkeypatch.context() as patch:
        patch.setattr(state, "_established", lambda parsed: False)
        with pytest.raises(AssertionError, match="connections broke"):
            _check_scale_cycle()
