"""Differential harness: the three chain-traversal modes are identical.

Hypothesis generates flow tables (random per-hop action shapes, VLAN
matching, low-priority CIDR fallbacks) and frame batches, then runs the
same workload through three independently-built copies of the same LSI
chain (lengths 1, 2 and 4):

1. **per-frame** — :meth:`Datapath.process` for every frame, the
   reference semantics;
2. **per-hop batch** — the batched pipeline with chain fusion pinned
   off (``fusion.enabled = False``): the fusion fallback path, and
   the fused path's differential oracle;
3. **production** — chain fusion plus the per-port dispatch layer:
   stable chains compiled into straight-line programs
   (:mod:`repro.switch.fusion`) with all per-hop counters settled
   arithmetically at flush, eligible ``(in_port, vlan)`` slices
   skipping the ingress ``FlowTable`` walk entirely.

Every observable must agree across all three: egress frames
byte-for-byte at every capture point, per-port rx/tx packet and byte
counters, per-entry flow counters, table lookup/match totals, miss /
drop / action-error counts, and controller punts.
"""

from hypothesis import given, settings, strategies as st

from repro.linuxnet import VethPair
from repro.net import MacAddress, make_udp_frame
from repro.switch import (
    Controller,
    Datapath,
    FlowEntry,
    FlowMatch,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
    VirtualLink,
)
from repro.switch.flowtable import ANY_VLAN, NO_VLAN

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")
NEW_MAC = "02:00:00:00:00:99"

CHAIN_LENGTHS = (1, 2, 4)

#: Per-hop action shapes; ``fwd`` is the port towards the next hop (or
#: the final sink), ``tee`` a local capture port.  No FLOOD — a flood
#: towards the backward link port would loop the chain.
_SHAPES = {
    "out": lambda fwd, tee, vid: (Output(fwd),),
    "push_out": lambda fwd, tee, vid: (PushVlan(vid), Output(fwd)),
    "pop_out": lambda fwd, tee, vid: (PopVlan(), Output(fwd)),
    "retag_out": lambda fwd, tee, vid: (PopVlan(), PushVlan(vid),
                                        Output(fwd)),
    "setdst_out": lambda fwd, tee, vid: (SetField("eth_dst", NEW_MAC),
                                         Output(fwd)),
    "setdst_push_out": lambda fwd, tee, vid: (SetField("eth_dst", NEW_MAC),
                                              PushVlan(vid), Output(fwd)),
    "setvid_out": lambda fwd, tee, vid: (SetField("vlan_vid", vid),
                                         Output(fwd)),
    "tee_out": lambda fwd, tee, vid: (Output(tee), Output(fwd)),
    # Emits, then errors (untagged) or rewrites (tagged), then emits:
    # the error-after-emission point of the lowering, and a trace bail
    # (two emission points) on both tag states.
    "tee_pop_out": lambda fwd, tee, vid: (Output(tee), PopVlan(),
                                          Output(fwd)),
    # Hash-LB hops: the rendezvous spread (stateless) and the stateful
    # per-flow table in front of it.  Both split the batch per flow;
    # as chain *terminals* they fuse per-replica (FusedSelectChain),
    # with the pick itself still computed per frame.
    "select_out": lambda fwd, tee, vid: (SelectOutput((fwd, tee)),),
    "pin_select_out": lambda fwd, tee, vid: (
        SelectOutput((fwd, tee), group="eq/lb:in"),),
    "pop_select_out": lambda fwd, tee, vid: (PopVlan(),
                                             SelectOutput((fwd, tee))),
    "drop": lambda fwd, tee, vid: (),
    "punt": lambda fwd, tee, vid: (Controller(),),
}

hop_spec = st.fixed_dictionaries({
    "shape": st.sampled_from(sorted(_SHAPES)),
    "vid": st.integers(min_value=1, max_value=5),
    # How the hop's primary entry matches VLANs: wildcard, exact id,
    # tagged-any or untagged-only.
    "match_vlan": st.sampled_from(["wild", "exact", "any", "none"]),
    "match_vid": st.integers(min_value=1, max_value=5),
    # Optional low-priority CIDR fallback (exercises the carried
    # ParsedFrame's lazy IPv4 decode at hops > 0).
    "cidr": st.sampled_from([None, "10.0.0.0/8", "11.0.0.0/8"]),
})

frame_spec = st.fixed_dictionaries({
    "vlan": st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    "sport": st.integers(min_value=1000, max_value=1005),
    "dst_net": st.sampled_from([10, 11, 12]),
    "payload": st.binary(min_size=1, max_size=6),
})


def _capture(datapath, name):
    """Device-backed port whose far veth end records egress bytes."""
    pair = VethPair(f"{name}-sw", f"{name}-wire")
    received = []
    pair.b.set_up()
    pair.b.attach_handler(lambda dev, fr: received.append(fr.to_bytes()))
    port = datapath.add_port(name, device=pair.a)
    return port, received


class ChainInstance:
    """One independent build of the generated chain scenario."""

    def __init__(self, length, hop_specs):
        self.hops = [Datapath(0x4000 + i, name=f"hop{i}")
                     for i in range(length)]
        self.links = []
        self.captures = {}   # capture name -> list of egress bytes
        self.punts = []      # (hop name, in_port, frame bytes)

        self.hops[0].add_port("ingress")
        in_ports = [1]
        for left, right in zip(self.hops, self.hops[1:]):
            link = VirtualLink.connect(left, right, name=f"vl-{left.name}")
            self.links.append(link)
            in_ports.append(link.far_port(right).port_no)

        for index, (hop, spec) in enumerate(zip(self.hops, hop_specs)):
            hop.packet_in_handler = (
                lambda dp, port, fr: self.punts.append(
                    (dp.name, port, fr.to_bytes())))
            tee_port, tee_rx = _capture(hop, f"tee{index}")
            self.captures[f"tee{index}"] = tee_rx
            if index + 1 < length:
                fwd_no = self.links[index].far_port(hop).port_no
            else:
                final_port, final_rx = _capture(hop, "final")
                self.captures["final"] = final_rx
                fwd_no = final_port.port_no
            cidr_port, cidr_rx = _capture(hop, f"cidr{index}")
            self.captures[f"cidr{index}"] = cidr_rx

            vlan_mode = spec["match_vlan"]
            vlan_vid = {"wild": None, "exact": spec["match_vid"],
                        "any": ANY_VLAN, "none": NO_VLAN}[vlan_mode]
            actions = _SHAPES[spec["shape"]](fwd_no, tee_port.port_no,
                                             spec["vid"])
            hop.install(FlowEntry(
                match=FlowMatch(in_port=in_ports[index], vlan_vid=vlan_vid),
                actions=actions, priority=100))
            if spec["cidr"] is not None:
                hop.install(FlowEntry(
                    match=FlowMatch(in_port=in_ports[index],
                                    ip_dst=spec["cidr"]),
                    actions=(Output(cidr_port.port_no),), priority=10))

    def observe(self):
        state = {"captures": {name: list(rx)
                              for name, rx in self.captures.items()},
                 "punts": sorted(self.punts)}
        for hop in self.hops:
            state[hop.name] = {
                "rx": hop.rx_packets, "misses": hop.table_misses,
                "dropped": hop.dropped, "errors": hop.action_errors,
                "ports": {n: (p.rx_packets, p.rx_bytes,
                              p.tx_packets, p.tx_bytes)
                          for n, p in hop.ports.items()},
                "flows": [(e.priority, e.match.describe(),
                           e.packets, e.bytes) for e in hop.table],
                "lookups": hop.table.lookups,
                "matches": hop.table.matches,
            }
        return state


def _frames(frame_specs):
    return [make_udp_frame(MAC_A, MAC_B, "10.0.0.1",
                           f"{spec['dst_net']}.0.0.2",
                           spec["sport"], 2000, spec["payload"],
                           vlan=spec["vlan"])
            for spec in frame_specs]


@given(hop_specs=st.lists(hop_spec, min_size=max(CHAIN_LENGTHS),
                          max_size=max(CHAIN_LENGTHS)),
       frame_specs=st.lists(frame_spec, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_three_traversal_modes_are_identical(hop_specs, frame_specs):
    for length in CHAIN_LENGTHS:
        specs = hop_specs[:length]

        per_frame = ChainInstance(length, specs)
        for frame in _frames(frame_specs):
            per_frame.hops[0].process(1, frame)

        per_hop = ChainInstance(length, specs)
        for hop in per_hop.hops:
            hop.fusion.enabled = False
        per_hop.hops[0].process_batch_from(1, _frames(frame_specs))

        production = ChainInstance(length, specs)
        production.hops[0].process_batch_from(1, _frames(frame_specs))

        reference = per_frame.observe()
        assert per_hop.observe() == reference, f"chain length {length}"
        assert production.observe() == reference, f"chain length {length}"


def _mid_batch_flow_mod_instance():
    """A chain-2 whose packet-in handler retargets the downstream hop
    mid-batch: frame 2 (tagged) misses the untagged-only ingress entry,
    punts, and the punt handler flow-mods hop1's forwarding entry to a
    fresh capture port — while frames 1 and 3 are still in flight."""
    specs = [{"shape": "out", "vid": 1, "match_vlan": "none",
              "match_vid": 1, "cidr": None},
             {"shape": "out", "vid": 1, "match_vlan": "wild",
              "match_vid": 1, "cidr": None}]
    chain = ChainInstance(2, specs)
    hop1 = chain.hops[1]
    retarget_port, retarget_rx = _capture(hop1, "retarget")
    chain.captures["retarget"] = retarget_rx
    victim = next(e for e in hop1.table if e.priority == 100)
    record_punt = chain.hops[0].packet_in_handler

    def punt_and_flow_mod(dp, port, frame):
        record_punt(dp, port, frame)
        hop1.install(FlowEntry(match=victim.match,
                               actions=(Output(retarget_port.port_no),),
                               priority=victim.priority))

    chain.hops[0].packet_in_handler = punt_and_flow_mod
    return chain


def test_mid_batch_flow_mod_forces_fallback_and_matches_per_hop():
    """A flow-mod landing *mid-batch* (from a packet-in handler) must
    invalidate the fused chain at flush and fall back to the per-hop
    path — byte-for-byte and counter-for-counter identical to the
    per-hop batch mode, with every frame reaching the *new* terminal.

    (Per-frame mode legitimately differs here: it would deliver frame
    1 to the old terminal before the flow-mod lands.  Batch semantics
    flush egress after handlers run, in both batch modes alike.)
    """
    frame_specs = [{"vlan": None, "sport": 1000, "dst_net": 10,
                    "payload": b"a"},
                   {"vlan": 3, "sport": 1001, "dst_net": 10,
                    "payload": b"b"},
                   {"vlan": None, "sport": 1002, "dst_net": 10,
                    "payload": b"c"}]

    fused = _mid_batch_flow_mod_instance()
    fused.hops[0].process_batch_from(1, _frames(frame_specs))

    per_hop = _mid_batch_flow_mod_instance()
    for hop in per_hop.hops:
        hop.fusion.enabled = False
    per_hop.hops[0].process_batch_from(1, _frames(frame_specs))

    assert fused.observe() == per_hop.observe()
    # Both untagged frames took the new terminal; none the old one.
    assert len(fused.captures["retarget"]) == 2
    assert fused.captures["final"] == []
    # The fused instance really fused, went stale, and fell back.
    engine = fused.hops[0].fusion
    assert engine.invalidations == 1
    assert engine.hits == 0 and engine.misses == 2
    # The chain re-fuses against the new rule set on the next batch.
    fused.hops[0].process_batch_from(
        1, _frames([frame_specs[0]]))
    assert engine.hits == 1
    assert len(fused.captures["retarget"]) == 3


def test_select_output_fuses_per_replica_and_modes_agree():
    """A chain ending in a hash-LB hop fuses per-replica
    (:class:`~repro.switch.fusion.FusedSelectChain`): the per-flow —
    even stateful — replica pick runs *inside* the fused program, and
    all three traversal modes stay identical."""
    for terminal in ("select_out", "pin_select_out"):
        specs = [{"shape": "out", "vid": 1, "match_vlan": "wild",
                  "match_vid": 1, "cidr": None},
                 {"shape": terminal, "vid": 1, "match_vlan": "wild",
                  "match_vid": 1, "cidr": None}]
        frame_specs = [{"vlan": None, "sport": 1000 + i,
                        "dst_net": 10 + i % 3, "payload": bytes([i])}
                       for i in range(8)]

        per_frame = ChainInstance(2, specs)
        for frame in _frames(frame_specs):
            per_frame.hops[0].process(1, frame)

        per_hop = ChainInstance(2, specs)
        for hop in per_hop.hops:
            hop.fusion.enabled = False
        per_hop.hops[0].process_batch_from(1, _frames(frame_specs))

        fused = ChainInstance(2, specs)
        fused.hops[0].process_batch_from(1, _frames(frame_specs))

        reference = per_frame.observe()
        assert per_hop.observe() == reference, terminal
        assert fused.observe() == reference, terminal
        # The production instance really fused the LB chain: every
        # frame went through the per-replica fused program.
        engine = fused.hops[0].fusion
        assert engine.hits == len(frame_specs), terminal
        assert engine.programs_built == 1, terminal
        assert engine.dispatch_hits > 0, terminal
        # The spread actually split the batch: both the forward port
        # (-> final capture) and the tee saw traffic.
        assert reference["captures"]["final"], terminal
        assert reference["captures"]["tee1"], terminal


def _replica_change_instance():
    """A chain-2 ending in a stateful spread whose replica set grows
    mid-batch: a tagged frame misses the untagged-only ingress entry,
    punts, and the punt handler reinstalls hop1's LB entry with a
    third replica port — while fused-select frames are in flight."""
    specs = [{"shape": "out", "vid": 1, "match_vlan": "none",
              "match_vid": 1, "cidr": None},
             {"shape": "pin_select_out", "vid": 1, "match_vlan": "wild",
              "match_vid": 1, "cidr": None}]
    chain = ChainInstance(2, specs)
    hop1 = chain.hops[1]
    extra_port, extra_rx = _capture(hop1, "extra")
    chain.captures["extra"] = extra_rx
    victim = next(e for e in hop1.table if e.priority == 100)
    old_ports = victim.actions[0].ports
    record_punt = chain.hops[0].packet_in_handler

    def punt_and_scale_out(dp, port, frame):
        record_punt(dp, port, frame)
        hop1.install(FlowEntry(
            match=victim.match,
            actions=(SelectOutput(old_ports + (extra_port.port_no,),
                                  group="eq/lb:in"),),
            priority=victim.priority))

    chain.hops[0].packet_in_handler = punt_and_scale_out
    return chain


def test_mid_stream_replica_change_falls_back_then_refuses_with_pins():
    """A replica-set change landing mid-batch must invalidate the
    per-replica fused program at flush with zero frames through the
    stale spread, stay identical to the per-hop twin, re-fuse against
    the new replica set on the next batch — and preserve every
    existing flow's state-table pin across all of it."""
    flows = [{"vlan": None, "sport": 1000 + i, "dst_net": 10,
              "payload": b"one-%d" % i} for i in range(6)]
    punt_frame = {"vlan": 3, "sport": 1999, "dst_net": 10,
                  "payload": b"scale"}
    batch2 = [dict(flows[0], payload=b"two-0"), punt_frame,
              dict(flows[1], payload=b"two-1")]
    batch3 = [dict(spec, payload=b"three-%d" % i)
              for i, spec in enumerate(flows)]
    new_flows = [{"vlan": None, "sport": 3000 + i, "dst_net": 11,
                  "payload": b"new-%d" % i} for i in range(12)]

    fused = _replica_change_instance()
    per_hop = _replica_change_instance()
    for hop in per_hop.hops:
        hop.fusion.enabled = False
    for chain in (fused, per_hop):
        first = chain.hops[0]
        first.process_batch_from(1, _frames(flows))
        first.process_batch_from(1, _frames(batch2))
        first.process_batch_from(1, _frames(batch3 + new_flows))

    assert fused.observe() == per_hop.observe()
    engine = fused.hops[0].fusion
    # Batch 1 fused; the mid-batch reinstall invalidated at flush and
    # both matched frames of batch 2 fell back per-hop (zero frames
    # through the stale program); batch 3 re-fused per-replica against
    # the grown set.
    assert engine.invalidations == 1
    assert engine.programs_built == 2
    assert engine.hits == len(flows) + len(batch3) + len(new_flows)
    assert engine.misses == 2
    # Pins survived the replica change: each established flow's
    # batch-3 frame egressed on the same replica as its batch-1 frame,
    # whatever rendezvous over the grown set would now say.
    captures = fused.captures
    for i in range(len(flows)):
        owner = [name for name in ("final", "tee1", "extra")
                 if any(b"one-%d" % i in fr for fr in captures[name])]
        after = [name for name in ("final", "tee1", "extra")
                 if any(b"three-%d" % i in fr for fr in captures[name])]
        assert owner == after, f"flow {i} moved: {owner} -> {after}"
    state = fused.hops[1].flow_state.table("eq/lb:in")
    stats = state.stats()
    assert stats["pinned"] >= len(batch3)
    assert stats["remapped"] == 0
    # The new replica actually takes traffic from the new flows.
    assert captures["extra"], "grown replica never engaged"
