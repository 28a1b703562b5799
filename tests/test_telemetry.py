"""Telemetry: ring buffers, sampled rates, journal-derived MTTR, export.

The journal-derived figures are asserted *exactly* — the sim clock
drives every timestamp, so MTTR and convergence times are replays of
the event log, not wall-clock approximations.
"""

import re

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
from repro.telemetry import ControlLoop, MetricsRegistry, SeriesRing, \
    render_prometheus
from repro.telemetry.export import render_top

SRC = MacAddress("02:aa:00:00:00:01")
DST = MacAddress("02:aa:00:00:00:02")


class SickableDriver(ComputeDriver):
    """Docker-flavored driver with injectable health/restart failures."""

    technology = Technology.DOCKER
    netns_prefix = "sick"

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
    node = ComputeNode("telemetry-test",
                       capabilities=NodeCapabilities.datacenter_server())
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    driver = SickableDriver(node.host, restartable=restartable)
    node.compute._drivers[Technology.DOCKER] = driver
    return node, driver


def dpi_graph(replicas=1):
    graph = Nffg(graph_id="tg", name="telemetry graph")
    graph.add_nf("dpi", "dpi", technology="docker", replicas=replicas)
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:dpi:in")
    graph.add_flow_rule("r2", "vnf:dpi:out", "endpoint:wan")
    return graph


def flows(count, frames_per_flow=1):
    out = []
    for f in range(count):
        for _ in range(frames_per_flow):
            out.append(make_udp_frame(SRC, DST, f"10.0.{f % 5}.{f % 31}",
                                      "10.1.0.1", 5000 + f, 53, b"t"))
    return out


# -- ring buffers ------------------------------------------------------------------

def test_series_ring_bounds_and_evicts():
    ring = SeriesRing(capacity=3)
    for i in range(5):
        ring.append(float(i), float(i * 10))
    assert len(ring) == 3
    assert ring.items() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    assert ring.last == (4.0, 40.0)
    with pytest.raises(ValueError):
        SeriesRing(capacity=0)


@pytest.mark.parametrize("capacity", [1, 2, 7])
def test_series_ring_equals_a_bounded_deque(capacity):
    from collections import deque

    ring = SeriesRing(capacity=capacity)
    model = deque(maxlen=capacity)
    assert ring.items() == [] and ring.last is None and len(ring) == 0
    # below, at and well beyond capacity
    for i in range(3 * capacity + 2):
        point = (i * 0.5, i * i / 3)
        ring.append(*point)
        model.append(point)
        assert ring.items() == list(model)
        assert ring.last == model[-1]
        assert len(ring) == len(model)


def test_event_journal_ring_reports_dropped():
    journal = EventJournal(max_events=4, clock=lambda: 7.5)
    for i in range(10):
        journal.append("g", f"kind-{i}")
    events = journal.events("g")
    assert len(events) == 4
    assert [e.kind for e in events] == ["kind-6", "kind-7", "kind-8",
                                       "kind-9"]
    assert journal.dropped_count("g") == 6
    assert all(e.time == 7.5 for e in events)
    journal.forget("g")
    assert journal.dropped_count("g") == 0
    with pytest.raises(ValueError):
        EventJournal(max_events=0)


def test_rest_events_report_ring_bound_and_dropped():
    node, _ = make_node()
    node.orchestrator.reconciler.journal.max_events = 5
    # Rebuild rings at the new bound by using a fresh journal instead.
    journal = EventJournal(max_events=5)
    node.orchestrator.reconciler.journal = journal
    node.telemetry.reconciler = node.orchestrator.reconciler
    client = RestClient(RestApp(node))
    node.deploy(dpi_graph())
    for _ in range(4):
        node.orchestrator.reconcile("tg")
    reply = client.get("/graphs/tg/events")
    assert reply.status == 200
    assert reply.body["max-events"] == 5
    assert len(reply.body["events"]) == 5
    assert reply.body["dropped"] > 0


# -- sampled rates -----------------------------------------------------------------

def test_registry_derives_per_nf_rates_between_samples():
    node, _ = make_node()
    node.deploy(dpi_graph())
    registry = node.telemetry
    registry.sample(now=0.0)
    node.steering.inject_batch("lan0", flows(10, frames_per_flow=4))
    registry.sample(now=2.0)
    rates = registry.nf_rates("tg")
    assert rates["dpi"]["pps"] == pytest.approx(20.0)  # 40 frames / 2 s
    assert rates["dpi"]["rx-packets-total"] == 40
    assert rates["dpi"]["bytes-per-second"] > 0
    assert registry.group_pps("tg", "dpi") == pytest.approx(20.0)


def test_registry_aggregates_replica_groups():
    node, _ = make_node()
    node.deploy(dpi_graph(replicas=3))
    registry = node.telemetry
    registry.sample(now=0.0)
    node.steering.inject_batch("lan0", flows(30, frames_per_flow=2))
    registry.sample(now=1.0)
    assert registry.replica_counts("tg") == {"dpi": 3}
    rates = registry.nf_rates("tg")
    assert set(rates) == {"dpi", "dpi@1", "dpi@2"}
    assert registry.group_pps("tg", "dpi") == pytest.approx(60.0)
    # Each replica saw a non-trivial share of the hash spread.
    for nf_id in rates:
        assert rates[nf_id]["pps"] > 0


def test_counter_reset_on_recreate_never_yields_negative_rates():
    """A heal-recreate gives the NF fresh LSI ports (counters back to
    0); the next sample must re-base instead of deriving a negative
    pps that would read as a drain signal."""
    node, driver = make_node(restartable=False)
    node.deploy(dpi_graph())
    registry = node.telemetry
    registry.sample(now=0.0)
    node.steering.inject_batch("lan0", flows(10, frames_per_flow=5))
    registry.sample(now=1.0)
    assert registry.nf_rates("tg")["dpi"]["pps"] == pytest.approx(50.0)
    driver.sick.add("tg-dpi")
    node.orchestrator.reconcile("tg")  # restart fails -> recreate
    registry.sample(now=2.0)
    rates = registry.nf_rates("tg")["dpi"]
    assert rates["pps"] >= 0
    assert rates["rx-packets-total"] == 0  # fresh ports, rebased
    node.steering.inject_batch("lan0", flows(4, frames_per_flow=2))
    registry.sample(now=3.0)
    assert registry.nf_rates("tg")["dpi"]["pps"] == pytest.approx(8.0)


def test_ad_hoc_scrapes_do_not_shorten_rate_windows():
    """REST-style samples between control-loop iterations refresh
    totals but never derive a rate over a tiny window (the autoscaler
    would otherwise see ~0 pps on a loaded NF)."""
    node, _ = make_node()
    node.deploy(dpi_graph())
    registry = node.telemetry
    registry.min_rate_window = 0.5  # what ControlLoop(interval=1.0) sets
    registry.sample(now=10.0)
    node.steering.inject_batch("lan0", flows(20, frames_per_flow=5))
    registry.sample(now=10.95)      # scrape: 0.95 >= 0.5, fine
    assert registry.nf_rates("tg")["dpi"]["pps"] > 0
    node.steering.inject_batch("lan0", flows(20, frames_per_flow=5))
    registry.sample(now=10.99)      # scrape right before the loop tick
    registry.sample(now=11.0)       # loop tick: window still 10.95->11.0?
    # The 0.04 s and 0.01 s windows were both refused; the rate stands
    # on the last full window and the totals are fresh.
    rates = registry.nf_rates("tg")["dpi"]
    assert rates["rx-packets-total"] == 200
    assert rates["pps"] > 50  # not the ~0 a 10 ms empty window would give
    assert ControlLoop(node.orchestrator, registry,
                       interval=2.0).registry.min_rate_window == 1.0


def test_registry_drops_state_for_undeployed_graphs():
    node, _ = make_node()
    node.deploy(dpi_graph())
    node.telemetry.sample(now=0.0)
    assert node.telemetry.graphs() == ["tg"]
    node.undeploy("tg")
    node.telemetry.sample(now=1.0)
    assert node.telemetry.graphs() == []


# -- journal-derived availability ---------------------------------------------------

def test_mttr_is_deterministic_under_the_sim_clock():
    node, driver = make_node(restartable=False)
    sim = Simulator()
    loop = ControlLoop(node.orchestrator, node.telemetry, interval=1.0)
    loop.run_sim(sim)
    node.deploy(dpi_graph())

    def injector():
        yield sim.timeout(3.5)
        driver.sick.add("tg-dpi")

    sim.process(injector(), name="chaos")
    sim.run(until=10.0)
    availability = node.telemetry.availability("tg")
    assert availability["failures"] == 1
    assert availability["heals"] == 1
    # Detected on the tick at t=4.0; the in-place restart fails there,
    # and the recreate on the next tick (t=5.0) completes the repair:
    # MTTR is exactly one control interval, every run.
    assert availability["mttr-seconds"] == pytest.approx(1.0)
    assert availability["journal-dropped"] == 0


def test_availability_reports_convergence_and_scale_times():
    node, _ = make_node()
    journal = node.orchestrator.reconciler.journal
    clock = [0.0]
    journal.clock = lambda: clock[0]
    node.deploy(dpi_graph())
    availability = node.telemetry.availability("tg")
    assert availability["mean-convergence-seconds"] is not None
    assert availability["time-to-scale-seconds"] is None


# -- export -------------------------------------------------------------------------

def test_prometheus_export_and_rest_metrics():
    node, driver = make_node(restartable=False)
    sim = Simulator()
    loop = ControlLoop(node.orchestrator, node.telemetry, interval=1.0)
    loop.run_sim(sim)
    node.deploy(dpi_graph())

    def chaos():
        yield sim.timeout(2.5)
        driver.sick.add("tg-dpi")

    def traffic():
        while True:
            node.steering.inject_batch("lan0", flows(8, frames_per_flow=3))
            yield sim.timeout(1.0)

    sim.process(chaos(), name="chaos")
    sim.process(traffic(), name="traffic")
    sim.run(until=8.0)

    client = RestClient(RestApp(node))
    text = client.prometheus_metrics()
    assert "# TYPE repro_nf_pps gauge" in text
    pps_values = [float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                  if line.startswith("repro_nf_pps{")]
    assert pps_values and any(value > 0 for value in pps_values)
    mttr_lines = [line for line in text.splitlines()
                  if line.startswith("repro_graph_mttr_seconds")]
    assert len(mttr_lines) == 1
    mttr = float(mttr_lines[0].rsplit(" ", 1)[1])
    assert mttr == pytest.approx(1.0)  # finite, and exact under sim time

    fusion_lines = [line for line in text.splitlines()
                    if line.startswith("repro_fusion_hits_total{")]
    assert any('lsi="LSI-0"' in line for line in fusion_lines)
    assert "# TYPE repro_fusion_invalidations_total counter" in text

    # Flow-state counters export per LSI too (a single-replica graph
    # has no LB hop, so they read zero — but the series exist).
    assert "# TYPE repro_flow_state_flows gauge" in text
    assert "# TYPE repro_flow_state_pinned_total counter" in text
    state_lines = [line for line in text.splitlines()
                   if line.startswith("repro_flow_state_flows{")]
    assert any('lsi="LSI-0"' in line for line in state_lines)

    document = client.graph_metrics("tg")
    assert document["availability"]["heals"] == 1
    assert document["nfs"]["dpi"]["pps"] > 0
    assert set(document["fusion"]) == {"hits", "misses", "dispatch-hits",
                                       "dispatch-misses", "invalidations",
                                       "programs-built", "enabled",
                                       "at-node-ingress"}
    # Per-graph fusion counters are no longer silently zero when the
    # chain fuses at node ingress: LSI-0's per-cookie share is folded
    # into the graph document.
    assert document["fusion"]["hits"] > 0
    assert document["fusion"]["at-node-ingress"]["hits"] > 0
    assert "# TYPE repro_fusion_dispatch_hits_total counter" in text
    assert document["flow-state"]["groups"] == 0  # no LB at 1 replica
    node_document = client.node_metrics()
    assert "LSI-0" in node_document["fusion"]
    assert "LSI-0" in node_document["flow-state"]
    reply = client.get("/metrics")
    assert reply.content_type.startswith("text/plain")
    assert client.get("/graphs/nope/metrics").status == 404


def test_render_top_table():
    node, _ = make_node()
    node.deploy(dpi_graph(replicas=2))
    node.telemetry.sample(now=0.0)
    node.steering.inject_batch("lan0", flows(12, frames_per_flow=2))
    node.telemetry.sample(now=1.0)
    text = render_top(node.telemetry.to_dict())
    assert "GRAPH" in text and "tg" in text and "dpi" in text
    assert "FUSED" in text  # fused-chain hit-rate column
    assert "PIN%" in text   # replica-affinity pin-rate column
    # Replicas aggregate back onto the base NF row.
    assert "dpi@1" not in text
    line = next(line for line in text.splitlines() if " dpi " in line)
    assert " 2 " in line  # replica count column
    # The whole chain — including the replicated spread — fuses at the
    # *node ingress* LSI, so the graph LSI's own engine never sees a
    # frame; the graph's share of LSI-0's counters is recovered by its
    # flow cookie, so FUSED and DISP show real percentages instead of
    # silently rendering "-".
    fused_col, disp_col, pin_col = line.rstrip().rsplit(None, 3)[-3:]
    assert fused_col == "100%" and disp_col == "100%"
    assert pin_col.endswith("%")
    node_fusion = node.telemetry.to_dict()["fusion"]["LSI-0"]
    assert node_fusion["hits"] == 24
    assert node_fusion["dispatch-hits"] == 24
    graph_fusion = node.telemetry.graph_metrics("tg")["fusion"]
    assert graph_fusion["hits"] == 24
    assert graph_fusion["at-node-ingress"]["dispatch-hits"] == 24
    bare = node.telemetry.to_dict()
    for graph in bare["graphs"].values():
        graph.pop("fusion", None)
        graph.pop("flow-state", None)
    legacy = render_top(bare)
    legacy_line = next(l for l in legacy.splitlines() if " dpi " in l)
    assert legacy_line.rstrip().endswith("-")
    legacy_fused = legacy_line.rstrip().rsplit(None, 2)[-2]
    assert legacy_fused == "-"


def test_render_prometheus_escapes_and_counts_samples():
    node, _ = make_node()
    node.deploy(dpi_graph())
    node.telemetry.sample(now=0.0)
    text = render_prometheus(node.telemetry)
    assert text.endswith("\n")
    assert "repro_telemetry_samples_total 1" in text


# -- Prometheus exposition-format conformance ---------------------------------------

_HELP_LINE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$")
_TYPE_LINE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<type>counter|gauge|histogram|summary|untyped)$")
_SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>'
    r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*'
    r')\})? '
    r'(?P<value>-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?'
    r'|NaN|[+-]?Inf))$')
_LABEL_PAIR = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"')


def assert_prometheus_conformant(text):
    """Strict line-format check over a full exposition document.

    Every line must be a HELP/TYPE comment or a well-formed sample
    (valid metric name, escaped label values, parseable number); each
    histogram family must render cumulative ``_bucket`` series ending
    at ``le="+Inf"`` with matching ``_sum`` and ``_count`` lines.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    histogram_families = set()
    samples = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP"):
            assert _HELP_LINE.match(line), f"bad HELP line: {line!r}"
            continue
        if line.startswith("# TYPE"):
            match = _TYPE_LINE.match(line)
            assert match, f"bad TYPE line: {line!r}"
            if match.group("type") == "histogram":
                histogram_families.add(match.group("name"))
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE_LINE.match(line)
        assert match, f"malformed sample line: {line!r}"
        labels = dict(_LABEL_PAIR.findall(match.group("labels") or ""))
        samples.append((match.group("name"), labels,
                        float(match.group("value"))))

    for family in histogram_families:
        series = {}
        sums = {}
        counts = {}
        for name, labels, value in samples:
            if name == f"{family}_bucket":
                le = labels.pop("le")
                key = tuple(sorted(labels.items()))
                series.setdefault(key, []).append((le, value))
            elif name == f"{family}_sum":
                sums[tuple(sorted(labels.items()))] = value
            elif name == f"{family}_count":
                counts[tuple(sorted(labels.items()))] = value
        assert set(series) == set(sums) == set(counts), (
            f"{family}: bucket/sum/count series sets disagree")
        for key, buckets in series.items():
            values = [value for _, value in buckets]
            assert values == sorted(values), (
                f"{family}{dict(key)}: buckets not cumulative")
            assert buckets[-1][0] == "+Inf", (
                f"{family}{dict(key)}: last bucket is not +Inf")
            assert buckets[-1][1] == counts[key], (
                f"{family}{dict(key)}: +Inf bucket != _count")
            finite = [float(le) for le, _ in buckets[:-1]]
            assert finite == sorted(finite), (
                f"{family}{dict(key)}: bucket bounds not ascending")


def test_full_metrics_document_is_prometheus_conformant():
    """Strict conformance over the real ``GET /metrics`` output — the
    gauge/counter families from the registry *and* the histogram
    blocks appended by the tracer, after real traffic, reconcile
    activity and control ticks."""
    node, driver = make_node(restartable=False)
    node.tracer.sample_every = 1
    sim = Simulator()
    loop = ControlLoop(node.orchestrator, node.telemetry, interval=1.0)
    loop.run_sim(sim)
    node.deploy(dpi_graph())

    def chaos():
        yield sim.timeout(2.5)
        driver.sick.add("tg-dpi")

    def traffic():
        while True:
            node.steering.inject_batch("lan0", flows(6, frames_per_flow=2))
            yield sim.timeout(1.0)

    sim.process(chaos(), name="chaos")
    sim.process(traffic(), name="traffic")
    sim.run(until=6.0)

    client = RestClient(RestApp(node))
    client.graph_status("tg")  # populate the rest_dispatch histogram
    text = client.prometheus_metrics()
    assert_prometheus_conformant(text)
    # The histogram families that must carry real series by now.
    for family in ("repro_dataplane_batch_seconds",
                   "repro_control_tick_seconds",
                   "repro_reconcile_step_seconds",
                   "repro_rest_dispatch_seconds"):
        assert f"# TYPE {family} histogram" in text
        assert f"{family}_bucket" in text, f"{family} has no series"


def test_prometheus_label_escaping_survives_strict_check():
    """Label values with quotes, backslashes and newlines must escape
    into legal exposition lines (order matters: backslash first)."""
    from repro.telemetry.histograms import HistogramRegistry, \
        render_histograms

    registry = HistogramRegistry()
    registry.register("odd", "Nasty labels.", ("route",))
    registry.observe("odd", ('a"b\\c\nd',), 1e-5)
    text = render_histograms(registry)
    assert_prometheus_conformant(text)
    assert 'route="a\\"b\\\\c\\nd"' in text
