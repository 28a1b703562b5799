"""Flight-recorder tracing: histograms, sampler, anomalies, CLI.

The dataplane determinism tests pin the span-tree contract: under a
fixed sim clock, identical nodes produce identical trees (counter ids,
no randomness).  The anomaly tests drive the real triggers — induced
heal, journal-ring eviction, invalidation storm, slow tick — and check
the frozen dumps correlate with journal sequence numbers.
"""

import json

import pytest

from repro.catalog.templates import Technology
from repro.compute.base import ComputeDriver, DriverError, Health
from repro.core import ComputeNode
from repro.core.reconciler import EventJournal
from repro.net import MacAddress, make_udp_frame
from repro.nffg.model import Nffg
from repro.resources.capabilities import NodeCapabilities
from repro.rest.app import RestApp
from repro.rest.client import RestClient
from repro.sim.engine import Simulator
from repro.telemetry import ControlLoop
from repro.telemetry.histograms import (
    LOG2_BOUNDS,
    HistogramRegistry,
    LatencyHistogram,
    render_histograms,
)
from repro.telemetry.tracing import FlightRecorder, Tracer

from tests.test_chain_fusion import _build_chain

SRC = MacAddress("02:bb:00:00:00:01")
DST = MacAddress("02:bb:00:00:00:02")


class SickableDriver(ComputeDriver):
    """Docker-flavored driver with injectable health/restart failures."""

    technology = Technology.DOCKER
    netns_prefix = "trace"

    def __init__(self, host, restartable=True):
        super().__init__(host)
        self.sick = set()
        self.restartable = restartable

    def create(self, spec):
        instance = super().create(spec)
        self.sick.discard(spec.instance_id)
        return instance

    def restart(self, instance):
        if not self.restartable:
            raise DriverError("injected: core dump on restart")
        super().restart(instance)
        self.sick.discard(instance.instance_id)

    def health(self, instance):
        if instance.instance_id in self.sick:
            return Health(False, "injected crash")
        return super().health(instance)


def make_node(restartable=True):
    node = ComputeNode("tracing-test",
                       capabilities=NodeCapabilities.datacenter_server())
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    driver = SickableDriver(node.host, restartable=restartable)
    node.compute._drivers[Technology.DOCKER] = driver
    return node, driver


def dpi_graph(replicas=1):
    graph = Nffg(graph_id="trg", name="tracing graph")
    graph.add_nf("dpi", "dpi", technology="docker", replicas=replicas)
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:dpi:in")
    graph.add_flow_rule("r2", "vnf:dpi:out", "endpoint:wan")
    return graph


def chain4_graph():
    graph = Nffg(graph_id="c4", name="chain of four")
    names = ["a", "b", "c", "d"]
    for name in names:
        graph.add_nf(name, "dpi", technology="docker")
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r0", "endpoint:lan", "vnf:a:in")
    for index, (left, right) in enumerate(zip(names, names[1:])):
        graph.add_flow_rule(f"r{index + 1}", f"vnf:{left}:out",
                            f"vnf:{right}:in")
    graph.add_flow_rule("r9", "vnf:d:out", "endpoint:wan")
    return graph


def flows(count, frames_per_flow=1):
    out = []
    for f in range(count):
        for _ in range(frames_per_flow):
            out.append(make_udp_frame(SRC, DST, f"10.0.{f % 5}.{f % 31}",
                                      "10.1.0.1", 5000 + f, 53, b"t"))
    return out


# -- histograms ---------------------------------------------------------------------

def test_histogram_buckets_and_quantiles():
    histogram = LatencyHistogram()
    assert histogram.quantile(0.5) is None  # empty
    histogram.observe(1e-6)    # lands exactly on the first bound
    histogram.observe(1.5e-6)  # second bucket (1, 2] us
    histogram.observe(3e-6)    # third bucket (2, 4] us
    assert histogram.counts[0] == 1
    assert histogram.counts[1] == 1
    assert histogram.counts[2] == 1
    assert histogram.total == 3
    assert histogram.sum == pytest.approx(5.5e-6)
    p50 = histogram.quantile(0.5)
    assert 1e-6 < p50 <= 2e-6  # interpolated inside the second bucket
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    keys = histogram.percentiles()
    assert set(keys) == {"p50", "p95", "p99"}


def test_histogram_overflow_clamps_to_largest_bound():
    histogram = LatencyHistogram()
    histogram.observe(1000.0)  # beyond ~67s: the +Inf bucket
    assert histogram.counts[-1] == 1
    assert histogram.quantile(0.99) == LOG2_BOUNDS[-1]
    snapshot = histogram.snapshot()
    assert snapshot["buckets"] == {"+Inf": 1}
    assert snapshot["count"] == 1


def test_histogram_snapshot_lists_only_nonempty_buckets():
    histogram = LatencyHistogram()
    for _ in range(10):
        histogram.observe(5e-6)
    snapshot = histogram.snapshot()
    assert list(snapshot["buckets"].values()) == [10]
    assert snapshot["p50"] is not None
    json.dumps(snapshot)  # JSON-clean


def test_registry_creates_series_lazily_and_snapshots():
    registry = HistogramRegistry()
    registry.register("thing", "A thing.", ("lsi",))
    registry.register("thing", "ignored duplicate", ("other",))  # no-op
    assert registry.get("thing", ("LSI-0",)) is None
    registry.observe("thing", ("LSI-0",), 2e-6)
    assert registry.get("thing", ("LSI-0",)).total == 1
    with pytest.raises(KeyError):
        registry.observe("unregistered", (), 1.0)
    snapshot = registry.snapshot()
    assert snapshot["thing"]["lsi=LSI-0"]["count"] == 1
    assert registry.to_dict() == snapshot


def test_render_histograms_prometheus_conformance():
    registry = HistogramRegistry()
    registry.register("batch", "Batch latency.", ("lsi",))
    for value in (1e-6, 3e-6, 3e-6, 1.0):
        registry.observe("batch", ("LSI-0",), value)
    text = render_histograms(registry)
    lines = text.splitlines()
    assert "# HELP repro_batch_seconds Batch latency." in lines
    assert "# TYPE repro_batch_seconds histogram" in lines
    buckets = [line for line in lines
               if line.startswith("repro_batch_seconds_bucket{")]
    # Cumulative and non-decreasing, ending at the +Inf bucket == count.
    counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
    assert counts == sorted(counts)
    assert buckets[-1].startswith(
        'repro_batch_seconds_bucket{lsi="LSI-0",le="+Inf"}')
    assert counts[-1] == 4
    assert 'repro_batch_seconds_count{lsi="LSI-0"} 4' in lines
    sum_line = next(line for line in lines
                    if line.startswith('repro_batch_seconds_sum{'))
    assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(1.000007)


def test_render_histograms_escapes_label_values():
    registry = HistogramRegistry()
    registry.register("odd", "Odd labels.", ("route",))
    registry.observe("odd", ('pa"th\\with\nnasties',), 1e-5)
    text = render_histograms(registry)
    assert 'route="pa\\"th\\\\with\\nnasties"' in text
    assert "\npa" not in text  # the raw newline never reaches the wire


# -- flight recorder ----------------------------------------------------------------

def test_flight_recorder_rings_are_bounded():
    tracer = Tracer(sample_every=1, flight_spans=4, max_dumps=2)
    for index in range(10):
        span = tracer.start_span("s", index=index)
        tracer.end_span(span)
    recent = tracer.flight.recent_spans()
    assert len(recent) == 4
    assert [span["attrs"]["index"] for span in recent] == [6, 7, 8, 9]
    assert tracer.flight.recorded == 10
    for index in range(3):
        tracer.freeze("manual", detail=f"f{index}")
    dumps = tracer.flight.dump_list()
    assert len(dumps) == 2  # ring of dumps, oldest evicted
    assert [d["detail"] for d in dumps] == ["f1", "f2"]
    with pytest.raises(ValueError):
        FlightRecorder(span_capacity=0)


def test_anomaly_cooldown_counts_all_freezes_once():
    tracer = Tracer(anomaly_cooldown=3600.0)
    first = tracer.anomaly("slow-tick", detail="a")
    second = tracer.anomaly("slow-tick", detail="b")
    assert first is not None and second is None  # cooldown ate the 2nd
    assert tracer.anomalies["slow-tick"] == 2   # but both were counted
    assert tracer.flight.frozen == 1
    # A different reason has its own cooldown window.
    assert tracer.anomaly("journal-drop") is not None


# -- the 1-in-N sampler -------------------------------------------------------------

def test_sampler_fires_every_nth_batch():
    node, _ = make_node()
    node.deploy(dpi_graph())
    tracer = node.tracer
    tracer.sample_every = 4
    tracer.batch_counter = 0
    for _ in range(8):
        node.steering.inject_batch("lan0", flows(3))
    # Batches also run on the graph LSI when frames take the lookup
    # path, so count only that >= 2 firings happened for 8+ batches.
    assert tracer.sampled_batches >= 2
    names = {span["name"] for span in tracer.flight.recent_spans()}
    assert "batch" in names
    assert "dispatch" in names or "lookup" in names


def test_unsampled_batches_record_nothing():
    node, _ = make_node()
    node.deploy(dpi_graph())
    tracer = node.tracer
    assert tracer.sample_every == 64
    recorded_after_deploy = tracer.flight.recorded  # reconcile spans
    for _ in range(10):
        node.steering.inject_batch("lan0", flows(2))
    assert tracer.sampled_batches == 0
    assert tracer.flight.recorded == recorded_after_deploy
    assert tracer.batch_counter > 0  # the counter did advance


# -- deterministic span trees -------------------------------------------------------

def _normalized_tree(tracer):
    """Spans minus wall clocks and the globally-counted flow entry id."""
    out = []
    for span in tracer.flight.recent_spans():
        span = dict(span)
        span.pop("wall-start", None)
        span.pop("wall-end", None)
        attrs = dict(span.get("attrs") or {})
        attrs.pop("entry", None)
        span["attrs"] = attrs
        out.append(span)
    return out


def _run_traced_chain4():
    node, _ = make_node()
    tracer = Tracer(sample_every=1, clock=lambda: 42.0)
    node.steering.set_tracer(tracer)
    node.deploy(chain4_graph())
    for _ in range(3):
        node.steering.inject_batch("lan0", flows(6, frames_per_flow=2))
    return tracer


def test_sim_clock_span_trees_are_deterministic():
    first = _run_traced_chain4()
    second = _run_traced_chain4()
    tree_a = _normalized_tree(first)
    tree_b = _normalized_tree(second)
    assert tree_a, "sampled chain-4 batches recorded no spans"
    assert tree_a == tree_b
    # The tree contains the full batch anatomy: root, dispatch/lookup,
    # fused chain with per-hop children, egress.
    names = [span["name"] for span in tree_a]
    assert "batch" in names and "hop" in names and "chain" in names
    hop_spans = [span for span in tree_a if span["name"] == "hop"]
    chain_spans = [span for span in tree_a if span["name"] == "chain"]
    parent_ids = {span["span-id"] for span in chain_spans}
    assert all(span["parent-id"] in parent_ids for span in hop_spans)
    assert all(span["sim-start"] == 42.0 for span in tree_a)
    # Per-LSI latency histograms populated for the batch + hops.
    assert first.histograms.get("dataplane_batch", ("LSI-0",)) is not None
    assert any(first.histograms.get("chain_hop", (lsi,)) is not None
               for lsi in ("LSI-0", "LSI-c4"))


# -- anomaly triggers ---------------------------------------------------------------

def test_induced_heal_freezes_flight_dump_correlated_with_journal():
    node, driver = make_node(restartable=False)
    node.deploy(dpi_graph())
    tracer = node.tracer
    tracer.sample_every = 1
    node.steering.inject_batch("lan0", flows(4))
    driver.sick.add("trg-dpi")
    node.orchestrator.reconcile("trg")  # restart fails -> recreate
    assert tracer.anomalies.get("heal", 0) >= 1
    dumps = tracer.flight.dump_list()
    heal_dumps = [d for d in dumps if d["reason"] == "heal"]
    assert heal_dumps, f"no heal dump frozen (got {dumps})"
    dump = heal_dumps[-1]
    events = node.orchestrator.reconciler.journal.events("trg")
    seqs = {event.seq: event for event in events}
    # The trigger seq is the journal's healed event.
    assert dump["seq"] in seqs
    assert seqs[dump["seq"]].kind == "healed"
    # And the frozen spans correlate with journal entries by seq too:
    # reconcile plan/step spans carry the seq of the event they logged.
    span_seqs = [span["seq"] for span in dump["spans"]
                 if span.get("seq") is not None]
    assert span_seqs
    assert any(seq in seqs for seq in span_seqs)
    # The dump carries the histogram state at freeze time.
    assert "reconcile_step" in dump["histograms"]


def test_reconcile_spans_and_histograms_cover_plan_and_steps():
    node, _ = make_node()
    tracer = node.tracer
    node.deploy(dpi_graph())
    names = [span["name"] for span in tracer.flight.recent_spans()]
    assert "reconcile.plan" in names
    assert any(name.startswith("step.") for name in names)
    assert tracer.histograms.get("reconcile_plan", ()) is not None
    kinds = [values for values
             in tracer.histograms._families["reconcile_step"]["series"]]
    assert kinds, "no reconcile_step series observed"


def test_journal_ring_eviction_triggers_journal_drop_anomaly():
    node, _ = make_node()
    tracer = node.tracer
    journal = EventJournal(max_events=3)
    journal.on_drop = tracer.on_journal_drop
    node.orchestrator.reconciler.journal = journal
    node.telemetry.reconciler = node.orchestrator.reconciler
    node.deploy(dpi_graph())
    for _ in range(3):
        node.orchestrator.reconcile("trg")
    assert tracer.anomalies.get("journal-drop", 0) >= 1
    dumps = [d for d in tracer.flight.dump_list()
             if d["reason"] == "journal-drop"]
    assert dumps
    assert dumps[0]["graph-id"] == "trg"


def test_invalidation_storm_trigger():
    tracer = Tracer(storm_threshold=3, storm_window=60.0)
    tracer.note_invalidation("LSI-0")
    tracer.note_invalidation("LSI-0")
    assert "invalidation-storm" not in tracer.anomalies
    tracer.note_invalidation("LSI-0")
    assert tracer.anomalies["invalidation-storm"] == 1
    dump = tracer.flight.dump_list()[-1]
    assert dump["reason"] == "invalidation-storm"
    assert "3 fusion" in dump["detail"]
    # The deque was cleared: the next burst needs 3 fresh drops again.
    tracer.note_invalidation("LSI-0")
    assert tracer.anomalies["invalidation-storm"] == 1


def test_live_program_invalidation_feeds_the_storm_detector():
    """A flow-mod that drops live fused programs must reach
    ``note_invalidation``; deploy-time invalidates (nothing cached)
    must not."""
    node, _ = make_node()
    tracer = Tracer(sample_every=64, storm_threshold=1, storm_window=60.0)
    node.steering.set_tracer(tracer)
    node.deploy(dpi_graph())
    assert "invalidation-storm" not in tracer.anomalies  # deploy is quiet
    node.steering.inject_batch("lan0", flows(6))  # fuse the chain
    node.undeploy("trg")  # tears down rules under live programs
    assert tracer.anomalies.get("invalidation-storm", 0) >= 1


def test_reactive_program_drops_feed_the_storm_detector():
    """A fused program dropped *reactively* — a direct table write
    caught by the flush-time ``valid()`` check, no steering-level
    invalidate anywhere — must reach ``note_invalidation`` like a
    proactive drop: ``storm_threshold`` of them inside ``storm_window``
    freeze an ``invalidation-storm`` dump."""
    from repro.switch import FlowEntry, Output

    hops = _build_chain(2)
    first, last = hops
    tracer = Tracer(sample_every=64, storm_threshold=3, storm_window=60.0)
    first.tracer = tracer
    victim = next(iter(last.table))
    sink = last.port_by_name("sink")
    batch = flows(4)
    for round_no in range(1, 4):
        first.process_batch_from(1, batch)  # (re-)fuses the chain
        assert first.fusion.invalidations == round_no - 1
        # Direct downstream table write: bumps the version under the
        # live program without touching the ingress engine.
        last.install(FlowEntry(match=victim.match,
                               actions=(Output(sink.port_no),),
                               priority=victim.priority))
        assert "invalidation-storm" not in tracer.anomalies
        first.process_batch_from(1, batch)  # stale at flush: fallback
        assert first.fusion.invalidations == round_no
    assert tracer.anomalies["invalidation-storm"] == 1
    dump = tracer.flight.dump_list()[-1]
    assert dump["reason"] == "invalidation-storm"
    assert first.name in dump["detail"]
    assert sink.tx_packets == 6 * len(batch)  # nothing lost on the way


def test_slow_tick_anomaly_and_tick_histogram():
    tracer = Tracer(slow_tick_threshold=0.25, clock=lambda: 5.0)
    tracer.observe_tick(0.01, graphs=2)
    assert "slow-tick" not in tracer.anomalies
    tracer.observe_tick(0.9, graphs=2)
    assert tracer.anomalies["slow-tick"] == 1
    dump = tracer.flight.dump_list()[-1]
    assert "0.9" in dump["detail"]
    assert dump["sim"] == 5.0
    histogram = tracer.histograms.get("control_tick", ())
    assert histogram.total == 2
    # Every tick also pushed a histogram snapshot onto the flight ring.
    assert len(dump["snapshots"]) == 2


def test_control_loop_ticks_feed_the_tracer():
    node, _ = make_node()
    sim = Simulator()
    loop = ControlLoop(node.orchestrator, node.telemetry, interval=1.0)
    loop.run_sim(sim)
    node.deploy(dpi_graph())
    sim.run(until=5.0)
    histogram = node.tracer.histograms.get("control_tick", ())
    assert histogram is not None and histogram.total >= 4


# -- REST + JSON surface ------------------------------------------------------------

def test_rest_traces_and_flight_endpoints():
    node, _ = make_node()
    node.tracer.sample_every = 1
    node.deploy(dpi_graph())
    node.steering.inject_batch("lan0", flows(5))
    node.tracer.freeze("manual", detail="surface test")
    client = RestClient(RestApp(node))
    traces = client.traces()
    assert traces["sample-every"] == 1
    assert traces["sampled-batches"] >= 1
    assert traces["spans"], "no spans over /traces"
    flight = client.flight_dumps()
    assert flight["flight-freezes"] >= 1
    assert any(d["reason"] == "manual" for d in flight["dumps"])
    json.dumps(traces), json.dumps(flight)  # wire-clean


def test_rest_traces_404_without_tracer():
    node, _ = make_node()
    node.tracer = None
    app = RestApp(node)
    assert app.handle("GET", "/traces").status == 404
    assert app.handle("GET", "/traces/flight").status == 404


def test_metrics_expose_histogram_blocks_and_tracing_stats():
    node, _ = make_node()
    node.tracer.sample_every = 1
    node.deploy(dpi_graph())
    node.steering.inject_batch("lan0", flows(6))
    client = RestClient(RestApp(node))
    text = client.prometheus_metrics()
    assert "# TYPE repro_dataplane_batch_seconds histogram" in text
    assert 'repro_dataplane_batch_seconds_bucket{lsi="LSI-0",le="+Inf"}' \
        in text
    assert "repro_rest_dispatch_seconds" in text  # family header present
    document = client.node_metrics()
    assert document["tracing"]["sampled-batches"] >= 1
    assert "dataplane_batch" in document["histograms"]
    batch_series = document["histograms"]["dataplane_batch"]
    assert any(snapshot["count"] >= 1
               for snapshot in batch_series.values())


def test_rest_dispatch_histogram_labels_by_route_pattern():
    node, _ = make_node()
    node.deploy(dpi_graph())
    client = RestClient(RestApp(node))
    client.graph_status("trg")
    client.node_description()
    series = node.tracer.histograms._families["rest_dispatch"]["series"]
    routes = {values[1] for values in series}
    # The label is the route *pattern*, not the concrete path — bounded
    # cardinality no matter how many graphs exist.
    assert any("{graph_id}" in route or "{" in route for route in routes)
    assert "trg" not in "".join(routes)


# -- CLI ----------------------------------------------------------------------------

@pytest.fixture
def served_traced_node():
    from repro.rest.server import NodeHttpServer

    node, _ = make_node()
    node.tracer.sample_every = 1
    server = NodeHttpServer(node, port=0).start()
    node.deploy(dpi_graph())
    node.steering.inject_batch("lan0", flows(4))
    try:
        yield node, server
    finally:
        server.stop()


def test_cli_trace_prints_span_tree(served_traced_node, capsys):
    from repro.cli.main import main

    node, server = served_traced_node
    assert main(["trace", "--url", server.url]) == 0
    out = capsys.readouterr().out
    assert "sampling 1/1" in out
    assert "batch" in out
    assert "ms" in out  # durations rendered


def test_cli_trace_flight_prints_dumps(served_traced_node, capsys):
    from repro.cli.main import main

    node, server = served_traced_node
    assert main(["trace", "--flight", "--url", server.url]) == 0
    assert "(no flight-recorder dumps frozen)" in capsys.readouterr().out
    node.tracer.freeze("manual", detail="cli probe")
    assert main(["trace", "--flight", "--url", server.url]) == 0
    out = capsys.readouterr().out
    assert "dump: reason='manual'" in out
    assert "cli probe" in out


def test_watch_top_backs_off_while_node_unreachable():
    from repro.cli.main import NodeUnreachable, watch_top

    node, _ = make_node()
    node.deploy(dpi_graph())
    node.telemetry.sample(now=0.0)
    document = node.telemetry.to_dict()

    replies = [NodeUnreachable("cannot reach http://x (down)"),
               NodeUnreachable("cannot reach http://x (down)"),
               document, document]
    delays, screens = [], []

    def fetch(method, url, timeout):
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    assert watch_top("http://x", interval=1.0, timeout=5.0,
                     iterations=4, fetch=fetch,
                     sleep=delays.append, out=screens.append) == 0
    # Exponential backoff while down, reset to the cadence on recovery.
    assert delays == [2.0, 4.0, 1.0, 1.0]
    assert "(no data yet)" in screens[0]
    assert "[stale]" in screens[0] and "[stale]" in screens[1]
    assert "retrying in 4s" in screens[1]
    assert "GRAPH" in screens[2] and "[stale]" not in screens[2]


def test_watch_top_keeps_last_good_table_during_outage():
    from repro.cli.main import NodeUnreachable, watch_top

    node, _ = make_node()
    node.deploy(dpi_graph())
    node.telemetry.sample(now=0.0)
    document = node.telemetry.to_dict()

    replies = [document, NodeUnreachable("cannot reach http://x (down)")]
    screens = []

    def fetch(method, url, timeout):
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    watch_top("http://x", interval=1.0, timeout=5.0, iterations=2,
              fetch=fetch, sleep=lambda _s: None, out=screens.append)
    # The stale screen still shows the last good table, plus the banner.
    assert "GRAPH" in screens[1]
    assert "[stale]" in screens[1]


def test_watch_top_backoff_caps():
    from repro.cli.main import _WATCH_BACKOFF_CAP, NodeUnreachable, \
        watch_top

    delays = []

    def fetch(method, url, timeout):
        raise NodeUnreachable("down")

    watch_top("http://x", interval=1.0, timeout=5.0, iterations=8,
              fetch=fetch, sleep=delays.append, out=lambda _s: None)
    assert delays[-1] == _WATCH_BACKOFF_CAP
    assert max(delays) == _WATCH_BACKOFF_CAP
