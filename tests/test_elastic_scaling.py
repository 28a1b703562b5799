"""Elastic scaling: hash-LB affinity, autoscaler hysteresis, full loop.

The acceptance scenario (deterministic, sim-engine driven): overload a
chain NF -> the autoscaler raises desired replicas -> the reconciler
converges -> hash-LB steering splits traffic with per-flow affinity ->
load drops -> cooldown-paced scale-in drains the replicas away.
"""

import pytest

from repro.core import ComputeNode
from repro.net import MacAddress, make_udp_frame
from repro.nffg.model import Nffg
from repro.nffg.replicas import expand_replicas, replica_base
from repro.resources.capabilities import NodeCapabilities
from repro.sim.engine import Simulator
from repro.switch import Datapath, FlowEntry, FlowMatch, Output, PushVlan, \
    flow_hash
from repro.telemetry import Autoscaler, ControlLoop, ScalingPolicy
from repro.net.builder import parse_frame

SRC = MacAddress("02:ab:00:00:00:01")
DST = MacAddress("02:ab:00:00:00:02")


def make_node(name="elastic-test"):
    node = ComputeNode(name,
                       capabilities=NodeCapabilities.datacenter_server())
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    return node


def dpi_graph(replicas=1, graph_id="eg"):
    graph = Nffg(graph_id=graph_id, name="elastic graph")
    graph.add_nf("dpi", "dpi", technology="docker", replicas=replicas)
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:dpi:in")
    graph.add_flow_rule("r2", "vnf:dpi:out", "endpoint:wan")
    return graph


def flow_frames(flow, count):
    """``count`` identical-5-tuple frames for flow index ``flow``."""
    return [make_udp_frame(SRC, DST, f"10.2.{flow % 9}.{flow % 29}",
                           "10.3.0.1", 6000 + flow, 53,
                           bytes([flow % 251]) * (20 + flow % 40))
            for _ in range(count)]


def capture_nf_ingress(node, graph_id):
    """nf_id -> list of raw frame bytes delivered into that NF.

    Replaces the inner (namespace-side) veth handler of every NF port
    with a recorder — byte-exact observation of what each replica's
    guest would have received.
    """
    captured = {}
    record = node.orchestrator.deployed[graph_id]
    for nf_id, instance in record.instances.items():
        sink = captured.setdefault(nf_id, [])
        for device in instance.unique_switch_devices():
            inner = device.peer
            inner.detach_handler()
            inner.attach_handler(
                lambda dev, frame, s=sink: s.append(frame.to_bytes()),
                batch_handler=lambda dev, frames, s=sink:
                    s.extend(frame.to_bytes() for frame in frames))
    return captured


# -- replica expansion -------------------------------------------------------------

def test_expansion_keeps_replica_zero_and_marks_lb_rules():
    graph = dpi_graph(replicas=3)
    expanded = expand_replicas(graph)
    assert [spec.nf_id for spec in expanded.nfs] == ["dpi", "dpi@1",
                                                     "dpi@2"]
    assert all(spec.replicas == 1 for spec in expanded.nfs)
    rule_ids = [rule.rule_id for rule in expanded.flow_rules]
    assert rule_ids == ["r1@lb3", "r2", "r2@1", "r2@2"]
    lb = expanded.flow_rules[0]
    assert lb.output.element == "dpi"  # base id: steering resolves group
    assert expanded.flow_rules[2].match.port_in.element == "dpi@1"
    # replicas=1 everywhere -> identity (same ids, same rules)
    plain = expand_replicas(dpi_graph(replicas=1))
    assert [s.nf_id for s in plain.nfs] == ["dpi"]
    assert [r.rule_id for r in plain.flow_rules] == ["r1", "r2"]


def test_replica_namespace_is_reserved():
    from repro.nffg.validate import NffgValidationError, validate_nffg
    graph = dpi_graph()
    graph.add_nf("bad@1", "dpi", technology="docker")
    graph.add_flow_rule("r3", "vnf:bad@1:out", "endpoint:wan")
    with pytest.raises(NffgValidationError, match="reserved"):
        validate_nffg(graph)


# -- hash-LB flow affinity ----------------------------------------------------------

def test_flow_hash_is_deterministic_and_spreads():
    frames = [parse_frame(flow_frames(flow, 1)[0]) for flow in range(64)]
    hashes = [flow_hash(parsed) for parsed in frames]
    assert hashes == [flow_hash(parse_frame(flow_frames(flow, 1)[0]))
                      for flow in range(64)]
    buckets = {h % 3 for h in hashes}
    assert buckets == {0, 1, 2}  # 64 distinct flows hit every replica
    # Non-IP frames hash their L2 conversation: stable per (src, dst,
    # ethertype), never raising, and distinct conversations spread
    # instead of all collapsing onto one replica (the old behavior
    # hashed every ARP to 0).
    from repro.net.addresses import MacAddress
    from repro.net.ethernet import EthernetFrame
    arp = parse_frame(EthernetFrame(dst=DST, src=SRC, ethertype=0x0806,
                                    payload=b"\x00" * 28))
    again = parse_frame(EthernetFrame(dst=DST, src=SRC, ethertype=0x0806,
                                      payload=b"\xff" * 28))
    assert flow_hash(arp) == flow_hash(again)  # payload-independent
    l2_hashes = {
        flow_hash(parse_frame(EthernetFrame(
            dst=DST, src=MacAddress(f"02:ab:00:00:01:{i:02x}"),
            ethertype=0x0806, payload=b"\x00" * 28)))
        for i in range(16)}
    assert len(l2_hashes) > 1  # distinct L2 sources spread


def test_every_frame_of_a_flow_hits_the_same_replica():
    node = make_node()
    node.deploy(dpi_graph(replicas=3))
    captured = capture_nf_ingress(node, "eg")
    for flow in range(24):
        before = {nf_id: len(frames) for nf_id, frames
                  in captured.items()}
        node.steering.inject_batch("lan0", flow_frames(flow, 7))
        deltas = {nf_id: len(captured[nf_id]) - before[nf_id]
                  for nf_id in captured}
        hit = [nf_id for nf_id, delta in deltas.items() if delta]
        assert len(hit) == 1, f"flow {flow} split across {hit}"
        assert deltas[hit[0]] == 7
    # The spread used more than one replica overall.
    used = {nf_id for nf_id, frames in captured.items() if frames}
    assert len(used) >= 2
    assert used == {"dpi", "dpi@1", "dpi@2"}  # every replica took flows


def test_lb_chain_is_byte_for_byte_identical_to_single_replica():
    """Differential: the union of frames the replicas receive equals
    exactly (as a byte multiset) what a single-replica deployment's one
    instance receives — the LB spread reroutes, never rewrites."""
    replicated = make_node("rep")
    replicated.deploy(dpi_graph(replicas=3))
    single = make_node("single")
    single.deploy(dpi_graph(replicas=1))
    cap_replicated = capture_nf_ingress(replicated, "eg")
    cap_single = capture_nf_ingress(single, "eg")
    workload = []
    for flow in range(20):
        workload.extend(flow_frames(flow, 5))
    replicated.steering.inject_batch("lan0", workload)
    single.steering.inject_batch("lan0", workload)
    union = sorted(b for frames in cap_replicated.values()
                   for b in frames)
    baseline = sorted(b for frames in cap_single.values() for b in frames)
    assert len(baseline) == len(workload)
    assert union == baseline


# -- the per-entry emit specialization (pure-output fast path) ----------------------

def test_pure_output_entries_bypass_the_compiled_call():
    entry = FlowEntry(match=FlowMatch(in_port=1), actions=(Output(2),))
    assert entry.fast_out == 2
    tagged = FlowEntry(match=FlowMatch(in_port=1),
                       actions=(PushVlan(5), Output(2)))
    assert tagged.fast_out is None
    dp = Datapath(0x3, name="fast")
    dp.add_port("in", port_no=1)
    dp.add_port("out", port_no=2)
    dp.install(entry)

    def boom(*args, **kwargs):  # the fast path must not run this
        raise AssertionError("compiled program called for pure output")

    entry.compiled = boom
    frames = flow_frames(1, 10)
    dp.process_batch_from(1, list(frames))
    assert dp.ports[2].tx_packets == 10
    # The per-frame path still uses the compiled program.
    entry.compiled = lambda dp_, in_port, frame, emit: emit(2, in_port,
                                                            frame)
    dp.process(1, frames[0])
    assert dp.ports[2].tx_packets == 11


# -- autoscaler hysteresis ----------------------------------------------------------

class StubRegistry:
    """Scriptable stand-in for MetricsRegistry (pps + clock only)."""

    def __init__(self):
        self.pps = {}
        self.t = 0.0

    def now(self):
        return self.t

    def group_pps(self, graph_id, nf_id):
        return self.pps.get((graph_id, nf_id))


def scaling_fixture(**policy_kwargs):
    node = make_node()
    node.deploy(dpi_graph())
    registry = StubRegistry()
    scaler = Autoscaler(node.orchestrator.reconciler, registry)
    defaults = dict(nf_id="dpi", target_pps=100.0, max_replicas=4,
                    cooldown_seconds=5.0)
    defaults.update(policy_kwargs)
    scaler.add_policy("eg", ScalingPolicy(**defaults))
    return node, registry, scaler


def desired_replicas(node):
    return node.orchestrator.reconciler.desired_raw["eg"].nf("dpi").replicas


def test_scale_out_jumps_to_the_needed_count():
    node, registry, scaler = scaling_fixture()
    registry.pps[("eg", "dpi")] = 350.0
    decisions = scaler.evaluate(now=10.0)
    assert [d.to_replicas for d in decisions] == [4]  # ceil(350/100)
    assert desired_replicas(node) == 4


def test_no_flap_at_the_boundary():
    node, registry, scaler = scaling_fixture()
    registry.pps[("eg", "dpi")] = 100.0  # exactly at target: no change
    assert scaler.evaluate(now=1.0) == []
    registry.pps[("eg", "dpi")] = 100.5
    assert [d.to_replicas for d in scaler.evaluate(now=2.0)] == [2]
    # 100.5 pps at 2 replicas: in the hysteresis gap — scale-in needs
    # load under target * 1 * headroom (70), scale-out needs > 200.
    assert scaler.evaluate(now=20.0) == []
    registry.pps[("eg", "dpi")] = 69.0
    assert [d.to_replicas for d in scaler.evaluate(now=40.0)] == [1]


def test_cooldown_rate_limits_changes():
    node, registry, scaler = scaling_fixture(cooldown_seconds=10.0)
    registry.pps[("eg", "dpi")] = 150.0
    assert len(scaler.evaluate(now=0.0)) == 1
    registry.pps[("eg", "dpi")] = 400.0
    assert scaler.evaluate(now=5.0) == []      # still cooling down
    assert len(scaler.evaluate(now=10.0)) == 1  # cooldown expired
    assert desired_replicas(node) == 4


def test_scale_in_steps_one_replica_at_a_time():
    node, registry, scaler = scaling_fixture()
    registry.pps[("eg", "dpi")] = 380.0
    scaler.evaluate(now=0.0)
    assert desired_replicas(node) == 4
    registry.pps[("eg", "dpi")] = 10.0
    scaler.evaluate(now=10.0)
    assert desired_replicas(node) == 3
    scaler.evaluate(now=20.0)
    assert desired_replicas(node) == 2
    assert [d.to_replicas for d in scaler.decisions] == [4, 3, 2]


def test_bounds_are_respected():
    node, registry, scaler = scaling_fixture(max_replicas=2,
                                             min_replicas=1)
    registry.pps[("eg", "dpi")] = 10_000.0
    scaler.evaluate(now=0.0)
    assert desired_replicas(node) == 2
    registry.pps[("eg", "dpi")] = 0.0
    scaler.evaluate(now=100.0)
    assert desired_replicas(node) == 1
    assert scaler.evaluate(now=200.0) == []  # at min already


# -- the full loop (acceptance) -----------------------------------------------------

def test_full_elastic_loop_scales_out_and_back_deterministically():
    node = make_node()
    sim = Simulator()
    scaler = Autoscaler(node.orchestrator.reconciler, node.telemetry)
    scaler.add_policy("eg", ScalingPolicy(
        nf_id="dpi", target_pps=100.0, max_replicas=3,
        cooldown_seconds=2.0))
    loop = ControlLoop(node.orchestrator, node.telemetry,
                       autoscaler=scaler, interval=1.0)
    loop.run_sim(sim)
    node.deploy(dpi_graph())

    def traffic():
        while sim.now < 24.0:
            rate = 300 if sim.now < 9.0 else 30
            frames = []
            for flow in range(30):
                frames.extend(flow_frames(flow, rate // 30))
            node.steering.inject_batch("lan0", frames)
            yield sim.timeout(1.0)

    trace = []

    def watcher():
        while True:
            trace.append((sim.now,
                          node.telemetry.replica_counts("eg").get("dpi",
                                                                  0)))
            yield sim.timeout(1.0)

    sim.process(traffic(), name="traffic")
    sim.process(watcher(), name="watcher")
    sim.run(until=28.0)

    counts = [count for _, count in trace]
    assert max(counts) == 3, f"never scaled out fully: {trace}"
    assert counts[-1] == 1, f"never drained back: {trace}"
    # Deterministic shape: out once (1 -> 3), then cooldown-paced
    # single-step drains (3 -> 2 -> 1).
    assert [(d.from_replicas, d.to_replicas)
            for d in scaler.decisions] == [(1, 3), (3, 2), (2, 1)]
    drain_times = [d.at for d in scaler.decisions[1:]]
    assert drain_times[1] - drain_times[0] >= 2.0  # cooldown respected
    availability = node.telemetry.availability("eg")
    assert availability["time-to-scale-seconds"] is not None
    # Within four control intervals (1 s each): decision to convergence,
    # and overload onset (t = 0) to all three replicas live.
    assert 0 < availability["time-to-scale-seconds"] <= 4 * 1.0
    assert next(t for t, count in trace if count == 3) <= 4 * 1.0
    assert loop.last_error == ""
    # While scaled out, traffic really was hash-split with affinity:
    # every replica carried load at the peak.
    assert node.telemetry.samples_taken >= 25


def test_loop_thread_driver_converges_too():
    node = make_node()
    loop = ControlLoop(node.orchestrator, node.telemetry, interval=0.01)
    node.deploy(dpi_graph())
    loop.start()
    try:
        import time
        deadline = time.monotonic() + 5.0
        while loop.iterations < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        loop.stop()
    assert loop.iterations >= 3
    assert loop.last_error == ""
    # NaN would spin the thread driver (Event.wait(nan) returns at
    # once); inf would kill it with OverflowError.
    for bad in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ControlLoop(node.orchestrator, node.telemetry, interval=bad)


# -- scale-out/in keeps untouched state ---------------------------------------------

def test_scaling_preserves_replica_zero_instance_and_counters():
    node = make_node()
    node.deploy(dpi_graph())
    original = node.orchestrator.deployed["eg"].instances["dpi"]
    node.update(dpi_graph(replicas=3))
    record = node.orchestrator.deployed["eg"]
    assert record.instances["dpi"] is original  # replica 0 untouched
    assert set(record.instances) == {"dpi", "dpi@1", "dpi@2"}
    node.update(dpi_graph(replicas=1))
    record = node.orchestrator.deployed["eg"]
    assert set(record.instances) == {"dpi"}
    assert record.instances["dpi"] is original


def test_replica_heal_reinstalls_the_lb_rule():
    from repro.compute.base import ComputeDriver  # noqa: F401
    node = make_node()
    graph = dpi_graph(replicas=2)
    node.deploy(graph)
    network = node.steering.graph_network("eg")
    assert "r1@lb2" in network.installed
    # Tear the second replica's namespace down behind the driver's back.
    instance = node.orchestrator.deployed["eg"].instances["dpi@1"]
    node.host.delete_namespace(instance.netns)
    result = node.orchestrator.reconcile("eg")
    assert result.converged
    record = node.orchestrator.deployed["eg"]
    assert record.instances["dpi@1"].is_running
    # The LB rule is still installed and spreads over the *new* ports.
    assert "r1@lb2" in network.installed
    captured = capture_nf_ingress(node, "eg")
    for flow in range(16):
        node.steering.inject_batch("lan0", flow_frames(flow, 3))
    assert sum(len(frames) for frames in captured.values()) == 48
    assert all(len(frames) % 3 == 0 for frames in captured.values())
