"""Compiled action pipelines ≡ the interpreted reference loop.

Property-based equivalence: for random action lists (including the
steering shapes, multi-emission lists, stateless and stateful replica
picks, error cases like pop-on-untagged, and drop-only lists) and
random frames, the closure from :func:`compile_actions` must produce
the identical emissions, packet-in punts, error/drop counters and
state-table side effects as :meth:`Datapath.execute_interpreted`.

Also covers the compiled-entry cache contract (compile at
construction, :meth:`FlowEntry.invalidate` after rebinding) and the
small-table bypass / two-level index mode switch around
:data:`SMALL_TABLE_THRESHOLD`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.switch import (
    Controller,
    Datapath,
    FlowEntry,
    FlowMatch,
    FlowTable,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
)
from repro.switch.actions import compile_actions
from repro.switch.flowtable import SMALL_TABLE_THRESHOLD

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")
MACS = ["02:00:00:00:00:0a", "02:00:00:00:00:0b"]

action_strategy = st.one_of(
    st.sampled_from([Output(2), Output(3), Controller(), PopVlan(),
                     SelectOutput((2, 3)),
                     SelectOutput((2, 3), group="g")]),
    st.builds(PushVlan, vid=st.integers(min_value=1, max_value=5)),
    st.builds(SetField, field=st.sampled_from(["eth_src", "eth_dst"]),
              value=st.sampled_from(MACS)),
    st.builds(SetField, field=st.just("vlan_vid"),
              value=st.integers(min_value=1, max_value=5)),
)


@st.composite
def frame_strategy(draw):
    vlan = draw(st.one_of(st.none(),
                          st.integers(min_value=1, max_value=5)))
    sport = draw(st.integers(min_value=1000, max_value=1004))
    return make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2",
                          sport, 2000, b"x", vlan=vlan)


def run_actions(actions, frames, compiled):
    """Execute ``actions`` on every frame; return all observable effects."""
    dp = Datapath(1)
    entry = FlowEntry(match=FlowMatch(), actions=actions)
    emissions = []
    punts = []
    dp.packet_in_handler = lambda d, port, fr: punts.append((port, fr))

    def emit(out_port, in_port, frame):
        emissions.append((out_port, in_port, frame))

    for frame in frames:
        if compiled:
            entry.compiled(dp, 7, frame, emit)
        else:
            dp.execute_interpreted(entry.actions, 7, frame, emit)
    return (emissions, punts, dp.dropped, dp.action_errors,
            dp.flow_state.stats())


@given(actions=st.lists(action_strategy, min_size=0, max_size=5),
       frames=st.lists(frame_strategy(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_compiled_equals_interpreted(actions, frames):
    assert run_actions(tuple(actions), frames, compiled=True) \
        == run_actions(tuple(actions), frames, compiled=False)


def test_empty_action_list_drops():
    emissions, punts, dropped, errors, _state = run_actions(
        (), [make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2",
                            1000, 2000, b"x")], compiled=True)
    assert emissions == [] and punts == []
    assert dropped == 1 and errors == 0


def test_unknown_action_fails_at_compile_time():
    with pytest.raises(TypeError):
        compile_actions(("not-an-action",))


@pytest.mark.parametrize("actions,expected", [
    ((Output(2),), False),
    ((Controller(),), False),
    ((), False),
    ((Output(2), Output(3), Controller()), False),
    ((PushVlan(5), Output(2)), True),
    ((PopVlan(), Output(2)), True),
    ((PopVlan(), PushVlan(5), Output(2)), True),
    ((SetField("eth_dst", "02:00:00:00:00:99"), Output(2)), True),
    ((SetField("eth_dst", "02:00:00:00:00:99"), PushVlan(5), Output(2)),
     True),
    ((SetField("vlan_vid", 7), Output(2)), True),
    ((PushVlan(5),), True),  # drop-only but still rewrites
])
def test_compiled_program_mutates_tag(actions, expected):
    """``mutates`` is True exactly when the list contains a transform —
    the tag the zero-reparse batch path relies on: a non-mutating
    program must only ever emit the ingress frame object itself."""
    program = compile_actions(actions)
    assert program.mutates is expected
    if not expected and any(isinstance(a, Output) for a in actions):
        emitted = []
        program(Datapath(1), 1, FRAME := make_udp_frame(
            MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", 1000, 2000, b"x"),
            lambda out, inp, fr: emitted.append(fr))
        assert all(fr is FRAME for fr in emitted)


def _count_mac_builds(monkeypatch):
    from repro.switch import actions as actions_module

    original = actions_module.MacAddress
    calls = [0]

    class CountingMac(original):
        def __init__(self, value):
            calls[0] += 1
            super().__init__(value)

    monkeypatch.setattr(actions_module, "MacAddress", CountingMac)
    return calls


@pytest.mark.parametrize("actions", [
    (SetField("eth_dst", "02:00:00:00:00:99"), Output(2)),
    (SetField("eth_src", "02:00:00:00:00:98"), Output(2)),
    (SetField("eth_dst", "02:00:00:00:00:99"), PushVlan(5), Output(2)),
])
def test_setfield_builds_mac_target_once_per_install(monkeypatch, actions):
    """Regression for the per-frame MacAddress rebuild: the compiled
    closure must allocate the set-field target exactly once, at
    flow-install time, no matter how many frames it executes on."""
    calls = _count_mac_builds(monkeypatch)
    entry = FlowEntry(match=FlowMatch(), actions=actions)
    assert calls[0] == 1
    dp = Datapath(1)
    emitted = []
    for index in range(50):
        entry.compiled(dp, 1, make_udp_frame(
            MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", 1000 + index, 2000,
            b"x"), lambda out, inp, fr: emitted.append(fr))
    assert calls[0] == 1  # still the single install-time build
    assert len(emitted) == 50
    want = actions[0].value
    field = "dst" if actions[0].field == "eth_dst" else "src"
    assert all(str(getattr(fr, field)) == want for fr in emitted)


def test_flow_entry_pickles_and_recompiles():
    import pickle
    entry = FlowEntry(match=FlowMatch(in_port=1, ip_dst="10.0.0.0/8"),
                      actions=(PushVlan(9), Output(2)), priority=7)
    entry.packets = 3
    clone = pickle.loads(pickle.dumps(entry))
    assert clone.match == entry.match
    assert clone.actions == entry.actions
    assert (clone.priority, clone.packets) == (7, 3)
    # The closure was dropped on pickle and rebuilt on unpickle.
    assert callable(clone.compiled)
    frame = make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2",
                           1000, 2000, b"x")
    emissions = []
    clone.compiled(Datapath(1), 1, frame,
                   lambda out, inp, fr: emissions.append((out, fr.vlan)))
    assert emissions == [(2, 9)]


def test_entry_compiles_at_construction_and_table_add_keeps_cache():
    entry = FlowEntry(match=FlowMatch(in_port=1), actions=[Output(2)])
    assert entry.actions == (Output(2),)  # normalized to a tuple
    compiled = entry.compiled
    assert callable(compiled)
    table = FlowTable()
    table.add(entry)
    assert entry.compiled is compiled  # add() does not recompile


def test_invalidate_recompiles_after_rebinding():
    dp = Datapath(1)
    dp.add_port("in")
    dp.add_port("two")
    dp.add_port("three")
    entry = FlowEntry(match=FlowMatch(in_port=1), actions=(Output(2),))
    dp.install(entry)
    frame = make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2",
                           1000, 2000, b"x")
    dp.process(1, frame)
    two, three = dp.ports[2], dp.ports[3]
    assert (two.tx_packets, three.tx_packets) == (1, 0)
    # Rebinding alone is unsupported: the cached program still runs.
    entry.actions = (Output(3),)
    dp.process(1, frame)
    assert (two.tx_packets, three.tx_packets) == (2, 0)
    entry.invalidate()
    dp.process(1, frame)
    assert (two.tx_packets, three.tx_packets) == (2, 1)


def frame_for(index):
    return make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2",
                          1000, 2000, b"x", vlan=100 + index)


def test_mode_switch_around_small_table_threshold():
    """The table serves identical results as it crosses the threshold
    in both directions, with the oracle cross-check on throughout."""
    table = FlowTable()
    table.oracle = True
    entries = []
    for index in range(SMALL_TABLE_THRESHOLD + 2):
        entry = FlowEntry(
            match=FlowMatch(in_port=1, vlan_vid=100 + index),
            actions=(Output(2),))
        entries.append(entry)

    def checked_lookup(index):
        parsed = parse_frame(frame_for(index))
        found = table.lookup(1, parsed, count=False)
        assert found is table.lookup_linear(1, parsed)
        return found

    for count, entry in enumerate(entries, start=1):
        table.add(entry)
        assert table.index_active == (count > SMALL_TABLE_THRESHOLD)
        assert checked_lookup(count - 1) is entry
    # Shrink back under the threshold: bypass mode resumes.
    while len(table) > SMALL_TABLE_THRESHOLD - 1:
        victim = entries[len(table) - 1]
        table.delete(match=victim.match, priority=victim.priority,
                     strict=True)
    assert not table.index_active
    assert checked_lookup(0) is entries[0]
    assert checked_lookup(len(table) + 1) is None  # deleted vid misses


def test_forced_index_mode_matches_bypass_results():
    indexed = FlowTable(small_table_threshold=0)
    bypassed = FlowTable()
    for table in (indexed, bypassed):
        table.oracle = True
        for index in range(6):
            table.add(FlowEntry(
                match=FlowMatch(in_port=1, vlan_vid=100 + index),
                actions=(Output(2),)))
    assert indexed.index_active and not bypassed.index_active
    for index in range(7):
        parsed = parse_frame(frame_for(index))
        left = indexed.lookup(1, parsed, count=False)
        right = bypassed.lookup(1, parsed, count=False)
        assert (left is None) == (right is None)
        if left is not None:
            assert left.match == right.match
