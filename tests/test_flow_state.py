"""Consistent-hash steering + per-flow state tables.

Three layers of coverage:

* unit tests on :class:`repro.switch.state.FlowStateTable` — pin,
  remap, adoption, aging and eviction, all on a hand-driven clock;
* Hypothesis properties on :func:`repro.switch.actions
  .rendezvous_select` — the *exact* minimal-disruption contract: on a
  port add only flows the new port wins move, on a remove only flows
  the removed port owned move, and a seeded-population fraction bound
  of ``1/min(N_from, N_to)`` (+ sampling slack) per step;
* a subprocess determinism check — selections must be identical under
  different ``PYTHONHASHSEED`` values, i.e. nothing in the steering
  path leaks Python's randomized ``hash()``.
"""

import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.net.builder import make_tcp_frame
from repro.net.ethernet import EthernetFrame
from repro.switch import flow_key, rendezvous_select
from repro.switch.actions import flow_hash
from repro.switch.state import FlowStateRegistry, FlowStateTable

SRC = MacAddress("02:aa:00:00:00:01")
DST = MacAddress("02:bb:00:00:00:02")


def _udp(flow: int, payload: bytes = b"x"):
    return parse_frame(make_udp_frame(
        SRC, DST, f"10.1.{flow % 250}.{flow // 250}", "10.2.0.1",
        3000 + flow, 53, payload))


def _tcp(flow: int, flags: int):
    return parse_frame(make_tcp_frame(
        SRC, DST, f"10.3.{flow % 250}.1", "10.4.0.1",
        4000 + flow, 80, b"p" if flags & 0x10 else b"", flags=flags))


def _l2(index: int, payload: bytes = b"\x00" * 28):
    return parse_frame(EthernetFrame(
        dst=DST, src=MacAddress(f"02:cc:00:00:00:{index:02x}"),
        ethertype=0x0806, payload=payload))


class Clock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# -- state table unit tests ---------------------------------------------------------

def test_first_sight_inserts_then_pins():
    clock = Clock()
    table = FlowStateTable(clock=clock)
    ports = (10, 11, 12)
    parsed = _udp(1)
    first = table.steer(parsed, ports, frozenset(ports))
    assert first == rendezvous_select(ports, flow_hash(parsed))
    assert table.inserted == 1 and table.pinned == 0
    for _ in range(5):
        assert table.steer(parsed, ports, frozenset(ports)) == first
    assert table.pinned == 5 and table.churned == 0
    assert table.owner(parsed) == first


def test_owner_departure_remaps_to_live_replica():
    clock = Clock()
    table = FlowStateTable(clock=clock)
    ports = (10, 11, 12)
    flows = [_udp(flow) for flow in range(48)]
    owners = {flow_key(p): table.steer(p, ports, frozenset(ports))
              for p in flows}
    gone = 10
    survivors = tuple(p for p in ports if p != gone)
    for parsed in flows:
        port = table.steer(parsed, survivors, frozenset(survivors))
        if owners[flow_key(parsed)] == gone:
            assert port in survivors
        else:
            # Minimal disruption: flows the departed replica did not
            # own stay exactly where they were.
            assert port == owners[flow_key(parsed)]
    moved = sum(1 for owner in owners.values() if owner == gone)
    assert table.remapped == moved == table.churned
    assert moved > 0


def test_idle_entries_expire_and_count_churn():
    clock = Clock()
    table = FlowStateTable(idle_timeout=30.0, clock=clock)
    parsed = _udp(2)
    table.steer(parsed, (10,), frozenset((10,)))
    clock.now = 31.0
    # Aged out; the fresh choice lands on a different port -> churned.
    port = table.steer(parsed, (11,), frozenset((11,)))
    assert port == 11
    assert table.expired == 1 and table.churned == 1
    assert len(table) == 1


def test_established_flows_adopt_the_default_owner():
    table = FlowStateTable(clock=Clock())
    table.default_owner = 10
    ports = (10, 11, 12)
    # Mid-connection ACK, never seen: its state predates the spread.
    established = _tcp(1, 0x10)
    assert table.steer(established, ports, frozenset(ports)) == 10
    assert table.adopted == 1
    # A SYN is a brand-new connection: load-balanced, not adopted.
    fresh = [_tcp(flow, 0x02) for flow in range(32)]
    spread = {table.steer(p, ports, frozenset(ports)) for p in fresh}
    assert len(spread) > 1
    assert table.adopted == 1
    # Adoption only targets live ports: owner gone -> rendezvous.
    table2 = FlowStateTable(clock=Clock())
    table2.default_owner = 99
    parsed = _tcp(2, 0x10)
    assert table2.steer(parsed, ports, frozenset(ports)) in ports
    assert table2.adopted == 0


def test_capacity_evicts_least_recently_seen():
    clock = Clock()
    table = FlowStateTable(capacity=2, clock=clock)
    ports = (10, 11)
    oldest, middle, newest = _udp(1), _udp(2), _udp(3)
    table.steer(oldest, ports, frozenset(ports))
    clock.now = 1.0
    table.steer(middle, ports, frozenset(ports))
    clock.now = 2.0
    table.steer(newest, ports, frozenset(ports))
    assert len(table) == 2 and table.evicted == 1
    assert table.owner(oldest) is None
    assert table.owner(middle) is not None


def test_coarse_clock_evicts_the_least_recently_touched_flow():
    """Sim ticks stamp a whole batch with one time, so ``last_seen``
    ties are normal: the flow just hit must not be the one dropped."""
    table = FlowStateTable(capacity=2, clock=Clock(5.0))
    ports = (10, 11)
    a, b, c = _udp(1), _udp(2), _udp(3)
    for parsed in (a, b, a, c):
        table.steer(parsed, ports, frozenset(ports))
    assert table.evicted == 1 and table.pinned == 1
    assert table.owner(b) is None
    assert table.owner(a) is not None and table.owner(c) is not None


def test_insert_at_capacity_trims_the_idle_prefix_first():
    clock = Clock()
    table = FlowStateTable(idle_timeout=10.0, capacity=3, clock=clock)
    ports = (10,)
    flows = [_udp(flow) for flow in range(4)]
    for flow in flows[:3]:
        table.steer(flow, ports, frozenset(ports))
        clock.now += 4.0
    # now=12: flow 0 (seen at 0) is idle, flow 1 (seen at 4) is not.
    table.steer(flows[3], ports, frozenset(ports))
    assert (table.expired, table.evicted, len(table)) == (1, 0, 3)
    assert table.owner(flows[0]) is None


@pytest.mark.parametrize("idle_timeout", [
    float("nan"), float("inf"), -float("inf"), 0, -1.0, "30", True, None])
def test_bad_idle_timeout_is_rejected_at_construction(idle_timeout):
    with pytest.raises(ValueError, match="idle_timeout"):
        FlowStateTable(idle_timeout=idle_timeout)
    with pytest.raises(ValueError, match="idle_timeout"):
        FlowStateRegistry(idle_timeout=idle_timeout)


@pytest.mark.parametrize("capacity", [
    2.5, 2.0, float("inf"), float("nan"), 0, -3, "8", True, None])
def test_bad_capacity_is_rejected_at_construction(capacity):
    with pytest.raises(ValueError, match="capacity"):
        FlowStateTable(capacity=capacity)
    with pytest.raises(ValueError, match="capacity"):
        FlowStateRegistry(capacity=capacity)


def test_registry_rejects_bad_limits_before_any_frame():
    with pytest.raises(ValueError):
        FlowStateRegistry(capacity=0, idle_timeout=-1)
    registry = FlowStateRegistry(idle_timeout=0.5, capacity=1)
    assert registry.table("g").capacity == 1


def test_registry_tables_share_a_rebindable_clock():
    registry = FlowStateRegistry(name="dp0", idle_timeout=10.0)
    table = registry.table("g/a:1")
    clock = Clock()
    registry.clock = clock  # rebind *after* table creation
    parsed = _udp(4)
    table.steer(parsed, (10,), frozenset((10,)))
    clock.now = 11.0
    assert registry.expire() == 1
    assert registry.table("g/a:1") is table  # get-or-create is stable
    assert registry.stats()["expired"] == 1
    assert registry.drop("g/a:1") and not registry.drop("g/a:1")


def test_l2_frames_have_stable_keys_and_steering():
    """Satellite regression: non-IP frames never raise, keep payload-
    independent keys, and hold replica affinity like any other flow."""
    table = FlowStateTable(clock=Clock())
    ports = (10, 11, 12)
    first = table.steer(_l2(1), ports, frozenset(ports))
    again = table.steer(_l2(1, payload=b"\xff" * 28), ports,
                        frozenset(ports))
    assert first == again and table.pinned == 1
    assert flow_key(_l2(1)) == flow_key(_l2(1, payload=b"\x01" * 28))
    assert flow_key(_l2(1)) != flow_key(_l2(2))
    spread = {table.steer(_l2(i), ports, frozenset(ports))
              for i in range(24)}
    assert len(spread) > 1


# -- rendezvous minimal-disruption properties ---------------------------------------

ports_strategy = st.lists(st.integers(min_value=1, max_value=4000),
                          min_size=1, max_size=8, unique=True)
flows_strategy = st.lists(st.integers(min_value=0,
                                      max_value=(1 << 32) - 1),
                          min_size=1, max_size=200)


@given(ports=ports_strategy, flows=flows_strategy,
       new_port=st.integers(min_value=4001, max_value=5000))
@settings(max_examples=100, deadline=None)
def test_adding_a_replica_moves_exactly_the_flows_it_wins(
        ports, flows, new_port):
    before = tuple(ports)
    after = tuple(ports) + (new_port,)
    for flow in flows:
        old = rendezvous_select(before, flow)
        new = rendezvous_select(after, flow)
        # A flow either stays put or moves to the *added* port — no
        # collateral reshuffling between surviving replicas, ever.
        assert new == old or new == new_port


@given(ports=st.lists(st.integers(min_value=1, max_value=5000),
                      min_size=2, max_size=8, unique=True),
       flows=flows_strategy, data=st.data())
@settings(max_examples=100, deadline=None)
def test_removing_a_replica_moves_exactly_the_flows_it_owned(
        ports, flows, data):
    before = tuple(ports)
    gone = data.draw(st.sampled_from(before))
    after = tuple(p for p in before if p != gone)
    for flow in flows:
        old = rendezvous_select(before, flow)
        new = rendezvous_select(after, flow)
        if old == gone:
            assert new in after
        else:
            assert new == old


def test_remap_fraction_stays_under_the_bound():
    """Seeded-population fraction bound, every ladder step 1..6 and
    back: moved/flows <= 1/min(N_from, N_to) + 5% slack (expectation
    is 1/max(N_from, N_to); the bound has margin by construction)."""
    import random
    rng = random.Random(41)
    flows = [rng.randrange(1 << 32) for _ in range(8000)]
    ports = tuple(100 + i for i in range(6))
    ladder = [ports[:n] for n in range(1, 7)]
    ladder += list(reversed(ladder[:-1]))
    owners = [rendezvous_select(ladder[0], flow) for flow in flows]
    for index, live in enumerate(ladder[1:]):
        new_owners = [rendezvous_select(live, flow) for flow in flows]
        moved = sum(1 for old, new in zip(owners, new_owners)
                    if old != new)
        bound = 1.0 / min(len(ladder[index]), len(live))
        assert moved / len(flows) <= bound + 0.05, (
            f"{len(ladder[index])} -> {len(live)}: "
            f"{moved}/{len(flows)} moved")
        owners = new_owners


def test_ties_break_deterministically():
    # Same flow, same ports, any ordering: one winner.
    flow = 0xDEADBEEF
    ports = (7, 3, 11, 5)
    winner = rendezvous_select(ports, flow)
    assert rendezvous_select(tuple(reversed(ports)), flow) == winner
    assert rendezvous_select((3, 5, 7, 11), flow) == winner


# -- process-restart determinism ----------------------------------------------------

_DETERMINISM_SNIPPET = textwrap.dedent("""
    from repro.net import MacAddress, make_udp_frame, parse_frame
    from repro.net.ethernet import EthernetFrame
    from repro.switch import flow_key, rendezvous_select
    from repro.switch.actions import flow_hash

    src = MacAddress("02:aa:00:00:00:01")
    dst = MacAddress("02:bb:00:00:00:02")
    ports = (11, 22, 33, 44)
    out = []
    for flow in range(128):
        parsed = parse_frame(make_udp_frame(
            src, dst, f"10.1.{flow}.1", "10.2.0.1",
            3000 + flow, 53, b"x"))
        out.append((flow_hash(parsed),
                    rendezvous_select(ports, flow_hash(parsed)),
                    flow_key(parsed)))
    for index in range(32):
        parsed = parse_frame(EthernetFrame(
            dst=dst, src=MacAddress(f"02:cc:00:00:00:{index:02x}"),
            ethertype=0x0806, payload=b"\\x00" * 28))
        out.append((flow_hash(parsed),
                    rendezvous_select(ports, flow_hash(parsed)),
                    flow_key(parsed)))
    print(repr(out))
""")


def _run_snippet(hashseed: str) -> str:
    import os
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SNIPPET], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    return result.stdout


def test_steering_survives_process_restarts():
    """Different ``PYTHONHASHSEED`` processes must agree on every
    hash, selection and key: replica affinity survives a node restart
    only if nothing leaks the interpreter's randomized ``hash()``."""
    first = _run_snippet("0")
    second = _run_snippet("1")
    assert first == second
    assert first.strip()  # the snippet actually produced selections


# -- flow_hash edge cases -----------------------------------------------------------

def test_flow_hash_is_16_bit_and_never_raises():
    frames = [_udp(1), _tcp(1, 0x02), _l2(1),
              parse_frame(EthernetFrame(dst=DST, src=SRC,
                                        ethertype=0x88CC, payload=b""))]
    for parsed in frames:
        value = flow_hash(parsed)
        assert 0 <= value <= 0xFFFF


def test_flow_key_is_exact_not_hashed():
    # Distinct 5-tuples that could collide in a 16-bit hash must still
    # have distinct keys (the state table matches exactly).
    keys = {flow_key(_udp(flow)) for flow in range(512)}
    assert len(keys) == 512
    tcp_key = flow_key(_tcp(1, 0x02))
    assert flow_key(_tcp(1, 0x10)) == tcp_key  # flags don't change it
