"""Chain-fusion unit tests: tracing, settlement, invalidation.

The hypothesis differential (``test_batch_equivalence``) pins fused
behavior against the per-hop oracle across random scenarios; these
tests pin the *mechanism* — what fuses and what must not, how the
tri-state cache behaves, that settled counters match the per-hop twin
bit-for-bit including two-branch VLAN byte deltas, that the steering
layer drops programs before any strict delete lands, and that the
registries which make invalidation cost what is cached (not what is
installed) drop exactly what a walk of every table would.
"""

import gc
import pickle

from repro.linuxnet import VethPair
from repro.net import MacAddress, make_udp_frame
from repro.switch import (
    Datapath,
    FlowEntry,
    FlowMatch,
    FusedChain,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    VirtualLink,
)
from repro.switch.actions import Controller
from repro.switch.fusion import FusedSelectChain

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


def _frames(count, vlans=(None,)):
    return [make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2",
                           4000 + i, 5001, bytes([i % 251]),
                           vlan=vlans[i % len(vlans)])
            for i in range(count)]


def _build_chain(length):
    """``length`` datapaths in a row joined by virtual links.

    Ingress port is 1 on the first hop; every hop is a plain
    ``Output`` and the last hop forwards to a counting ``sink`` port.
    """
    hops = [Datapath(0x9000 + i, name=f"hop{i}") for i in range(length)]
    hops[0].add_port("ingress")
    previous_in = 1
    for left, right in zip(hops, hops[1:]):
        link = VirtualLink.connect(left, right, name=f"vl-{left.name}")
        out_no = link.far_port(left).port_no
        left.install(FlowEntry(match=FlowMatch(in_port=previous_in),
                               actions=(Output(out_no),)))
        previous_in = link.far_port(right).port_no
    last = hops[-1]
    sink = last.add_port("sink")
    last.install(FlowEntry(match=FlowMatch(in_port=previous_in),
                           actions=(Output(sink.port_no),)))
    return hops


def _vlan_chain():
    """push(100) -> forward -> pop, with a byte-capturing terminal.

    An untagged ingress frame grows 4 bytes mid-chain and shrinks
    back; a tagged one keeps its length throughout — the two-branch
    wire-length case the fused byte counters must settle exactly.
    """
    hops = [Datapath(0x7000 + i, name=f"vhop{i}") for i in range(3)]
    hops[0].add_port("ingress")
    link01 = VirtualLink.connect(hops[0], hops[1], name="vl01")
    link12 = VirtualLink.connect(hops[1], hops[2], name="vl12")
    pair = VethPair("final-sw", "final-wire")
    received = []
    pair.b.set_up()
    pair.b.attach_handler(lambda dev, fr: received.append(fr.to_bytes()))
    final = hops[2].add_port("final", device=pair.a)
    hops[0].install(FlowEntry(
        match=FlowMatch(in_port=1),
        actions=(PushVlan(100), Output(link01.far_port(hops[0]).port_no))))
    hops[1].install(FlowEntry(
        match=FlowMatch(in_port=link01.far_port(hops[1]).port_no),
        actions=(Output(link12.far_port(hops[1]).port_no),)))
    hops[2].install(FlowEntry(
        match=FlowMatch(in_port=link12.far_port(hops[2]).port_no),
        actions=(PopVlan(), Output(final.port_no))))
    return hops, (link01, link12), received


def _snapshot(hops, links):
    state = {}
    for hop in hops:
        state[hop.name] = {
            "rx": hop.rx_packets, "dropped": hop.dropped,
            "lookups": hop.table.lookups, "matches": hop.table.matches,
            "flows": [(e.priority, e.match.describe(),
                       e.packets, e.bytes) for e in hop.table],
            "ports": {n: (p.rx_packets, p.rx_bytes,
                          p.tx_packets, p.tx_bytes)
                      for n, p in hop.ports.items()},
        }
    state["links"] = [link.carried for link in links]
    return state


def test_two_branch_vlan_chain_counters_match_per_hop_twin():
    frames = _frames(20, vlans=(None, 5, 7))
    fused_hops, fused_links, fused_rx = _vlan_chain()
    fused_hops[0].process_batch_from(1, frames)
    perhop_hops, perhop_links, perhop_rx = _vlan_chain()
    for hop in perhop_hops:
        hop.fusion.enabled = False
    perhop_hops[0].process_batch_from(1, frames)

    assert fused_hops[0].fusion.hits == 20
    assert fused_rx == perhop_rx
    assert _snapshot(fused_hops, fused_links) == \
        _snapshot(perhop_hops, perhop_links)


def test_fused_program_shape():
    hops, _links, _rx = _vlan_chain()
    hops[0].process_batch_from(1, _frames(2, vlans=(None, 5)))
    entry = next(iter(hops[0].table))
    program = entry.fused
    assert isinstance(program, FusedChain)
    assert len(program.hops) == 3
    assert program.two_branch  # push on an untagged branch grows it
    assert program.kwargs == {"vlan": None, "vlan_pcp": 0}
    assert program.valid()


def test_single_hop_chain_is_not_fused():
    hops = _build_chain(1)
    hops[0].process_batch_from(1, _frames(5))
    engine = hops[0].fusion
    assert engine.hits == 0 and engine.programs_built == 0
    # Negative-cached: one attribute read per frame from here on.
    entry = next(iter(hops[0].table))
    assert entry.fused == engine.epoch


def test_unfuseable_shapes_negative_cache_and_epoch_retrace():
    hops = _build_chain(2)
    first = hops[0]
    engine = first.fusion
    # Make the downstream hop unfuseable: punt instead of forwarding.
    last = hops[-1]
    victim = next(iter(last.table))
    last.install(FlowEntry(match=victim.match, actions=(Controller(),),
                           priority=victim.priority))
    first.process_batch_from(1, _frames(4))
    entry = next(iter(first.table))
    assert entry.fused == engine.epoch
    assert engine.misses == 4 and engine.hits == 0
    # Restore a forwardable terminal; the stale negative verdict holds
    # until an epoch bump (steering-level invalidation) retries it.
    sink = last.port_by_name("sink")
    last.install(FlowEntry(match=victim.match,
                           actions=(Output(sink.port_no),),
                           priority=victim.priority))
    first.process_batch_from(1, _frames(4))
    assert engine.hits == 0
    engine.invalidate()
    first.process_batch_from(1, _frames(4))
    assert engine.hits == 4 and engine.programs_built == 1


def test_taps_keep_fusion_off():
    hops = _build_chain(2)
    hops[0].taps.append(lambda port, frame: None)
    hops[0].process_batch_from(1, _frames(6))
    assert hops[0].fusion.hits == 0
    assert hops[0].fusion.misses == 0  # fusion never engaged at all
    assert hops[-1].port_by_name("sink").tx_packets == 6


def test_frame_dependent_downstream_candidate_bails_trace():
    hops = _build_chain(2)
    last = hops[-1]
    in_no = next(iter(last.table)).match.in_port
    side = last.add_port("side")
    # A higher-priority CIDR entry on the far table: the next-hop
    # winner now depends on frame payload, so the chain must not fuse.
    last.install(FlowEntry(
        match=FlowMatch(in_port=in_no, ip_dst="10.9.0.0/16"),
        actions=(Output(side.port_no),), priority=200))
    first = hops[0]
    first.process_batch_from(1, _frames(5))
    assert first.fusion.hits == 0
    assert next(iter(first.table)).fused == first.fusion.epoch
    assert last.port_by_name("sink").tx_packets == 5


def test_flow_mod_invalidates_then_refuses():
    hops = _build_chain(4)
    first = hops[0]
    engine = first.fusion
    first.process_batch_from(1, _frames(8))
    assert engine.hits == 8
    # Direct flow-mod on a mid-chain table (no steering hook fires):
    # the flush-time validity check must catch the version bump.
    mid = hops[2]
    victim = next(iter(mid.table))
    mid.install(FlowEntry(match=victim.match, actions=victim.actions,
                          priority=victim.priority))
    first.process_batch_from(1, _frames(8))
    assert engine.invalidations == 1
    assert engine.hits == 8  # second batch fell back
    first.process_batch_from(1, _frames(8))
    assert engine.hits == 16  # re-traced against the new table
    assert hops[-1].port_by_name("sink").tx_packets == 24


def test_link_rewire_invalidates_ingress_program():
    hops = _build_chain(2)
    first = hops[0]
    first.process_batch_from(1, _frames(3))
    entry = next(iter(first.table))
    assert isinstance(entry.fused, FusedChain)
    link = first.ports[2].peer_link
    link.detach()
    # Proactive: the endpoint datapaths' engines dropped their caches.
    assert entry.fused is None
    first.process_batch_from(1, _frames(3))
    assert first.fusion.hits == 3  # still only the first batch


def test_pickled_entries_shed_fused_programs_and_dispatch_slots():
    hops = _build_chain(2)
    hops[0].process_batch_from(1, _frames(2))
    entry = next(iter(hops[0].table))
    assert isinstance(entry.fused, FusedChain)
    assert entry.dispatch, "the batch should have built a dispatch slot"
    clone = pickle.loads(pickle.dumps(entry))
    assert clone.fused is None
    assert clone.dispatch == []
    assert clone.match.describe() == entry.match.describe()
    # The live entry's slot registration is untouched by the round
    # trip, and the clone's list is its own object.
    assert entry.dispatch
    assert clone.dispatch is not entry.dispatch


def test_dispatch_skips_ingress_walk():
    hops = _build_chain(2)
    first = hops[0]
    engine = first.fusion
    first.process_batch_from(1, _frames(5))
    # Every matched frame of the batch came through the dispatch slot
    # (the slot is built by the first frame, before any lookup runs).
    assert engine.dispatch_hits == 5 and engine.dispatch_misses == 0
    assert engine.hits == 5
    slot = engine.dispatch[1][None]
    assert slot[0] == first.table.version
    assert slot[1] is next(iter(first.table))
    assert slot[2] is slot[1].fused
    assert slot in slot[1].dispatch
    # Ingress lookup totals settled exactly as if lookup() had run.
    assert first.table.lookups == 5 and first.table.matches == 5
    assert hops[-1].port_by_name("sink").tx_packets == 5


def test_frame_dependent_slice_gets_negative_slot():
    hops = _build_chain(2)
    first = hops[0]
    primary = next(iter(first.table))
    side = first.add_port("side")
    # A higher-priority CIDR entry on the *ingress* table: the slice
    # winner now depends on frame payload, so the slice must not
    # dispatch — but the chain still fuses through the lookup path.
    first.install(FlowEntry(
        match=FlowMatch(in_port=1, ip_dst="10.99.0.0/16"),
        actions=(Output(side.port_no),), priority=200))
    first.process_batch_from(1, _frames(6))
    engine = first.fusion
    assert engine.dispatch_hits == 0 and engine.dispatch_misses == 6
    assert engine.hits == 6
    slot = engine.dispatch[1][None]
    assert slot[1] is None and slot[0] == first.table.version
    assert primary.dispatch == []


def test_invalidate_tears_down_dispatch_but_keeps_counters():
    hops = _build_chain(2)
    first = hops[0]
    engine = first.fusion
    first.process_batch_from(1, _frames(4))
    entry = next(iter(first.table))
    slot = engine.dispatch[1][None]
    assert entry.dispatch
    engine.invalidate()
    # The dispatch *table* is gone and every slot is stamped stale —
    # including ones a mid-batch loop may still hold — but the
    # dispatch hit/miss counters are cumulative telemetry and never
    # rewind.
    assert engine.dispatch == {}
    assert entry.dispatch == []
    assert slot[0] == -1 and slot[1] is None and slot[2] is None
    assert engine.dispatch_hits == 4 and engine.dispatch_misses == 0
    first.process_batch_from(1, _frames(4))
    assert engine.dispatch_hits == 8


def _select_chain(group=None):
    """forward hop -> stateless/stateful spread over two captures."""
    hops = [Datapath(0x7100 + i, name=f"sel{i}") for i in range(2)]
    hops[0].add_port("ingress")
    link = VirtualLink.connect(hops[0], hops[1], name="sl01")
    captures = []
    for name in ("r0", "r1"):
        pair = VethPair(f"{name}-sw", f"{name}-wire")
        received = []
        pair.b.set_up()
        pair.b.attach_handler(
            lambda dev, fr, rx=received: rx.append(fr.to_bytes()))
        hops[1].add_port(name, device=pair.a)
        captures.append(received)
    replica_ports = tuple(hops[1].port_by_name(n).port_no
                          for n in ("r0", "r1"))
    hops[0].install(FlowEntry(
        match=FlowMatch(in_port=1),
        actions=(Output(link.far_port(hops[0]).port_no),)))
    hops[1].install(FlowEntry(
        match=FlowMatch(in_port=link.far_port(hops[1]).port_no),
        actions=(SelectOutput(replica_ports, group=group),)))
    return hops, captures


def test_select_terminal_fuses_per_replica():
    hops, captures = _select_chain()
    hops[0].process_batch_from(1, _frames(20))
    engine = hops[0].fusion
    assert engine.hits == 20 and engine.programs_built == 1
    program = next(iter(hops[0].table)).fused
    assert isinstance(program, FusedSelectChain)
    assert len(program.hops) == 1 and program.state is None
    assert program.valid()
    # The spread really split the batch across both replicas, and
    # every frame landed somewhere.
    assert captures[0] and captures[1]
    assert len(captures[0]) + len(captures[1]) == 20


def test_select_chain_refuses_stale_state_table():
    hops, _captures = _select_chain(group="t/lb")
    hops[0].process_batch_from(1, _frames(8))
    program = next(iter(hops[0].table)).fused
    assert isinstance(program, FusedSelectChain)
    assert program.state is hops[1].flow_state.peek("t/lb")
    assert program.valid()
    # Dropping the group (graph teardown) recreates the table on next
    # consultation; the program must refuse to steer against the
    # forgotten state and fall back.
    hops[1].flow_state.drop("t/lb")
    assert not program.valid()
    engine = hops[0].fusion
    before = engine.invalidations
    hops[0].process_batch_from(1, _frames(4))
    assert engine.invalidations == before + 1
    assert hops[0].rx_packets == 12  # every frame still delivered


def test_splice_terminal_matches_replace_semantics():
    hops, _links, received = _vlan_chain()
    program_frames = _frames(3, vlans=(None, 5, 7))
    hops[0].process_batch_from(1, program_frames)
    entry = next(iter(hops[0].table))
    program = entry.fused
    # push(100) then pop composes to an identity-tag rewrite; the
    # splice applies it without running the frame constructor.
    assert program.splice is not None
    spliced = [program.splice(frame) for frame in program_frames]
    assert [fr.to_bytes() for fr in spliced] == received[:3]
    assert all(fr.vlan is None and fr.vlan_pcp == 0 for fr in spliced)


def test_steering_uninstall_drops_programs_before_strict_deletes():
    """Satellite contract: by the time any ``flow_delete`` reaches a
    table, no fused program may be alive anywhere on the node."""
    from test_core_steering import (
        fake_instance,
        manager_with_interfaces,
        simple_graph,
    )

    manager, wires = manager_with_interfaces("lan0", "wan0")
    graph = simple_graph()
    manager.create_graph_network("g1")
    instance = fake_instance("nat1")
    manager.attach_instances("g1", {"nat1": instance})
    manager.install_graph_rules(graph, {"nat1": instance})

    datapaths = [manager.base.datapath,
                 manager.graphs["g1"].lsi.datapath]

    def live_programs():
        return [entry for dp in datapaths for entry in dp.table
                if isinstance(entry.fused, FusedChain)]

    manager.inject_batch("lan0", _frames(10))
    assert manager.base.datapath.fusion.hits == 10
    assert live_programs(), "the steering chain should have fused"

    seen = []
    for network_controller in (manager.base_controller,
                               manager.graphs["g1"].controller):
        original = network_controller.flow_delete

        def spying(*args, _original=original, **kwargs):
            seen.append(len(live_programs()))
            return _original(*args, **kwargs)

        network_controller.flow_delete = spying

    assert manager.uninstall_rule("g1", "r1")
    assert seen, "uninstall_rule issued no strict deletes"
    assert all(count == 0 for count in seen), (
        "fused programs were still live when a strict delete landed")


def test_steering_stats_and_metrics_surface_fusion():
    from test_core_steering import (
        fake_instance,
        manager_with_interfaces,
        simple_graph,
    )

    manager, wires = manager_with_interfaces("lan0", "wan0")
    graph = simple_graph()
    manager.create_graph_network("g1")
    instance = fake_instance("nat1")
    manager.attach_instances("g1", {"nat1": instance})
    manager.install_graph_rules(graph, {"nat1": instance})
    manager.inject_batch("lan0", _frames(4))

    stats = manager.fusion_stats()
    assert set(stats) == {"LSI-0", "LSI-g1"}
    assert stats["LSI-0"]["hits"] == 4
    assert stats["LSI-0"]["programs-built"] == 1
    # The injected frames all share one (port, vlan) slice, so once
    # the slot exists every matched frame is a dispatch hit.
    assert stats["LSI-0"]["dispatch-hits"] == 4
    assert stats["LSI-0"]["dispatch-misses"] == 0
    for lsi_stats in stats.values():
        assert set(lsi_stats) == {"hits", "misses", "dispatch-hits",
                                  "dispatch-misses", "invalidations",
                                  "programs-built", "enabled"}


def _tenant_graph(graph_id, vlan_id, through_nf=True):
    """One tenant on VLAN ``vlan_id`` of lan0: through its NAT (chains
    that cross LSIs and fuse) or straight lan -> wan (a one-hop rule on
    LSI-0, which traces to a negative verdict)."""
    from repro.nffg.model import Nffg

    graph = Nffg(graph_id=graph_id)
    graph.add_nf("nat1", "nat")
    graph.add_endpoint("lan", "lan0", vlan_id=vlan_id)
    graph.add_endpoint("wan", "wan0")
    if through_nf:
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat1:lan")
        graph.add_flow_rule("r2", "vnf:nat1:wan", "endpoint:wan")
    else:
        graph.add_flow_rule("r1", "endpoint:lan", "endpoint:wan")
    return graph


def _fleet_with_traffic():
    """Four graphs on one node: g1/g2 fuse at LSI-0 *and* at their own
    LSI (return traffic), g3 leaves a negative verdict on LSI-0, g4
    never sees a frame."""
    from test_core_steering import fake_instance, manager_with_interfaces

    manager, _wires = manager_with_interfaces("lan0", "wan0")
    for index, graph_id in enumerate(("g1", "g2", "g3", "g4")):
        graph = _tenant_graph(graph_id, 10 + index,
                              through_nf=graph_id != "g3")
        manager.create_graph_network(graph_id)
        instance = fake_instance("nat1", graph_id=graph_id)
        manager.attach_instances(graph_id, {"nat1": instance})
        manager.install_graph_rules(graph, {"nat1": instance})
    manager.inject_batch("lan0", _frames(12, vlans=(10, 11, 12)))
    for graph_id in ("g1", "g2"):
        network = manager.graphs[graph_id]
        network.lsi.datapath.process_batch_from(
            network.nf_ports[("nat1", "wan")].port_no, _frames(3))
    return manager


class _InvalidationLog:
    """The one tracer hook ``FusionEngine.drop`` calls."""

    def __init__(self):
        self.notes = []

    def note_invalidation(self, name, dropped):
        self.notes.append((name, dropped))


def test_invalidate_fusion_equals_a_walk_of_every_table(monkeypatch):
    from repro.switch.fusion import FusionEngine

    manager = _fleet_with_traffic()
    datapaths = {"LSI-0": manager.base.datapath}
    for network in manager.graphs.values():
        datapaths[network.lsi.name] = network.lsi.datapath

    # The reference: what walking every table of the node finds cached.
    live, cached, epochs, invalidations = {}, {}, {}, {}
    for name, dp in datapaths.items():
        verdicts = [entry.fused for entry in dp.table
                    if entry.fused is not None]
        live[name] = sum(isinstance(v, FusedChain) for v in verdicts)
        slots = sum(len(by_vlan) for by_vlan in dp.fusion.dispatch.values())
        cached[name] = bool(verdicts) or slots > 0
        epochs[name] = dp.fusion.epoch
        invalidations[name] = dp.fusion.invalidations
    assert live == {"LSI-0": 2, "LSI-g1": 1, "LSI-g2": 1, "LSI-g3": 0,
                    "LSI-g4": 0}
    assert cached == {"LSI-0": True, "LSI-g1": True, "LSI-g2": True,
                      "LSI-g3": False, "LSI-g4": False}
    negative = [entry for entry in manager.base.datapath.table
                if type(entry.fused) is int]
    assert len(negative) == 1  # g3's one-hop rule

    called = []
    original = FusionEngine.invalidate

    def spying(engine):
        called.append(engine.dp.name)
        return original(engine)

    monkeypatch.setattr(FusionEngine, "invalidate", spying)
    log = _InvalidationLog()
    for dp in datapaths.values():
        dp.tracer = log

    assert manager.invalidate_fusion() == sum(live.values())

    # Engines that never cached anything are not even called ...
    assert sorted(called) == ["LSI-0", "LSI-g1", "LSI-g2"]
    # ... and what a walk of every table now finds is: nothing.
    for name, dp in datapaths.items():
        engine = dp.fusion
        for entry in dp.table:
            assert entry.fused is None and entry.dispatch == []
        assert not any(engine.dispatch.values())
        assert engine.invalidations - invalidations[name] == live[name]
        assert engine.epoch == epochs[name] + cached[name]
        assert len(engine.traced) == 0
    assert sorted(log.notes) == [("LSI-0", 2), ("LSI-g1", 1), ("LSI-g2", 1)]
    # A second call finds every engine clean: it costs no call at all.
    del called[:]
    assert manager.invalidate_fusion() == 0
    assert called == []
    # The contract is whole: traffic re-traces and re-fuses.
    for dp in datapaths.values():
        dp.tracer = None
    manager.inject_batch("lan0", _frames(12, vlans=(10, 11, 12)))
    assert manager.base.datapath.fusion.programs_built == 4


def test_traced_registry_does_not_pin_deleted_entries():
    """Direct table deletes never tell the engine, and a program
    refers back to its ingress entry, so a deleted entry is a garbage
    *cycle*: once collected it must be out of the registry too."""
    hops = _build_chain(2)
    first = hops[0]
    engine = first.fusion
    out_no = next(iter(first.table)).actions[0].port
    first.table.clear()
    # Oracle mode keeps the dispatch layer out of it: a dispatch slot
    # holds its entry strongly until its slice is re-resolved, which
    # would hide whether the *registry* lets go.
    first.table.oracle = True
    vlans = list(range(100, 140))
    for vid in vlans:
        # Even vids forward down the chain (a program); odd ones punt
        # (a negative verdict).
        actions = (Output(out_no),) if vid % 2 == 0 else (Controller(),)
        first.install(FlowEntry(match=FlowMatch(in_port=1, vlan_vid=vid),
                                actions=actions))
    first.process_batch_from(1, _frames(len(vlans), vlans=vlans))
    assert engine.programs_built == len(vlans) // 2
    assert len(engine.traced) == len(vlans)
    assert sum(type(entry.fused) is int for entry in first.table) \
        == len(vlans) // 2

    for vid in vlans[:30]:  # 15 programs, 15 negative verdicts
        assert first.table.delete(
            match=FlowMatch(in_port=1, vlan_vid=vid), strict=True) == 1
    gc.collect()
    survivors = [entry for entry in first.table if entry.fused is not None]
    assert len(survivors) == 10
    assert len(engine.traced) <= len(survivors)
    assert engine.invalidate() == 5
    assert len(engine.traced) == 0
