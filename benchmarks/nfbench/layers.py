"""Per-layer metrics of a traced pass, and the trace-vs-profile check.

Timings come from the span totals of the traced window
(:class:`~.shims.SpanTracer`); counts from the public statistics the
workload read before and after it (``FusionEngine.stats()``,
``FlowStateTable.stats()``, ``ConnTrack.entries()``,
``steering.flow_counts()``, and the program's own ``reconcile_step``
histogram family).  A metric whose layer did no work on a workload
reads 0.
"""

from __future__ import annotations

import statistics

from .harness import Pass, percentile
from .shims import SpanTracer
from .spec import LAYER_METRICS, STEP_KINDS, VERBS

__all__ = ["LAYER_OF_PREFIX", "layer_metrics", "layer_of_module",
           "profile_shares", "profiler_costs", "reported_only",
           "trace_shares"]

#: span-name prefix -> layer (package) name
LAYER_OF_PREFIX = {
    "net": "net",
    "flowtable": "switch.flowtable",
    "actions": "switch.actions",
    "fusion": "switch.fusion",
    "state": "switch.state",
    "datapath": "switch.datapath",
    "linuxnet": "linuxnet",
    "compute": "compute",
    "nnf": "nnf",
    "steering": "core.steering",
    "openflow": "openflow",
    "reconciler": "core.reconciler",
    "nffg": "nffg",
    "catalog": "catalog",
    "resources": "resources",
    "rest": "rest",
    "telemetry": "telemetry",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: Pass, untraced: Pass,
                  tracer: SpanTracer) -> dict[str, float]:
    """Every declared layer metric, by name."""
    total = tracer.total
    before, after = traced.counts_before, traced.counts_after
    workload = traced.workload

    def mean_ns(span: str) -> float:
        calls, inclusive, _, _ = total(span)
        return _ratio(inclusive, calls)

    def mean_us(span: str) -> float:
        return mean_ns(span) / 1e3

    def self_per_unit(span: str) -> float:
        _, _, self_ns, units = total(span)
        return _ratio(self_ns, units)

    def self_ns(span: str) -> float:
        calls, _, own, _ = total(span)
        return _ratio(own, calls)

    def delta(group: str, key: str) -> int:
        return (after.get(group, {}).get(key, 0)
                - before.get(group, {}).get(key, 0))

    frames = after.get("offered", 0) - before.get("offered", 0)
    if not frames:  # control-churn offers one probe frame per cycle
        frames = after.get("graphs_created", 0) \
            - before.get("graphs_created", 0)
    process_calls = total("datapath.process")[0]
    batch_frames = total("datapath.batch")[3]
    values = {
        "net.parse_ns": mean_ns("net.parse"),
        "net.from_bytes_ns": mean_ns("net.from_bytes"),
        "net.parse_calls_per_frame":
            _ratio(total("net.parse")[0], frames),
        "flowtable.lookup_ns": mean_ns("flowtable.lookup"),
        "flowtable.add_us": mean_us("flowtable.add"),
        "flowtable.delete_us": mean_us("flowtable.delete"),
        "flowtable.entries": after.get("flowtable.entries", 0),
        "actions.compile_us": mean_us("actions.compile"),
        "actions.exec_ns.output": self_ns("actions.exec.output"),
        "actions.exec_ns.push-output":
            self_ns("actions.exec.push-output"),
        "actions.exec_ns.pop-output": self_ns("actions.exec.pop-output"),
        "actions.exec_ns.select": self_ns("actions.exec.select"),
        "fusion.dispatch_hit_share": _ratio(
            delta("fusion", "dispatch-hits"),
            delta("fusion", "dispatch-hits")
            + delta("fusion", "dispatch-misses")),
        "fusion.fused_hit_share": _ratio(
            delta("fusion", "hits"),
            delta("fusion", "hits") + delta("fusion", "misses")),
        "fusion.programs_built": delta("fusion", "programs-built"),
        "fusion.invalidations": delta("fusion", "invalidations"),
        "fusion.trace_us": mean_us("fusion.trace"),
        "state.steer_hit_ns": mean_ns("state.steer.hit"),
        "state.steer_insert_ns": mean_ns("state.steer.insert"),
        "state.pinned": delta("state", "pinned"),
        "state.inserted": delta("state", "inserted"),
        "state.evicted": delta("state", "evicted"),
        "datapath.batch_ns_per_frame": self_per_unit("datapath.batch"),
        "datapath.process_ns": self_ns("datapath.process"),
        "datapath.perframe_share":
            _ratio(process_calls, process_calls + batch_frames),
        "linuxnet.device_xmit_ns": self_per_unit("linuxnet.device_xmit"),
        "linuxnet.ns_forward_us":
            self_per_unit("linuxnet.ns_forward") / 1e3,
        "linuxnet.iptables_traverse_ns":
            mean_ns("linuxnet.iptables_traverse"),
        "linuxnet.conntrack_lookup_ns":
            mean_ns("linuxnet.conntrack_lookup"),
        "linuxnet.conntrack_create_ns":
            mean_ns("linuxnet.conntrack_create"),
        "linuxnet.conntrack_entries": after.get("conntrack.entries", 0),
        "linuxnet.cmd_us": mean_us("linuxnet.cmd"),
        "compute.create_us": mean_us("compute.create"),
        "compute.configure_us": mean_us("compute.configure"),
        "compute.start_us": mean_us("compute.start"),
        "compute.destroy_us": mean_us("compute.destroy"),
        "compute.health_us": mean_us("compute.health"),
        "nnf.shared_attach_us": mean_us("nnf.shared_attach"),
        "steering.create_network_us": mean_us("steering.create_network"),
        "steering.install_rule_us": _ratio(
            total("steering.install_rule")[1],
            total("steering.install_rule")[3]) / 1e3,
        "steering.uninstall_rule_us": mean_us("steering.uninstall_rule"),
        "steering.invalidate_fusion_us":
            mean_us("steering.invalidate_fusion"),
        "steering.inject_self_ns": self_per_unit("steering.inject"),
        "openflow.flowmod_us": mean_us("openflow.flowmod"),
        "openflow.msgs_per_graph": _ratio(
            total("openflow.msg")[0],
            after.get("graphs_created", 0)
            - before.get("graphs_created", 0)),
        "reconciler.set_desired_us": mean_us("reconciler.set_desired"),
        "reconciler.plan_us": mean_us("reconciler.plan"),
        "reconciler.noop_tick_us": mean_us("reconciler.tick.noop"),
        "reconciler.lock_wait_us": mean_us("reconciler.lock_wait"),
        "nffg.decode_us": mean_us("nffg.decode"),
        "nffg.validate_us": mean_us("nffg.validate"),
        "nffg.expand_us": mean_us("nffg.expand"),
        "nffg.diff_us": mean_us("nffg.diff"),
        "nffg.encode_us": mean_us("nffg.encode"),
        "catalog.resolve_us": mean_us("catalog.resolve"),
        "resources.admit_us": mean_us("resources.admit"),
        "rest.encode_us": mean_us("rest.encode"),
        "telemetry.sample_us": mean_us("telemetry.sample"),
        "trace.overhead_share":
            1.0 - _ratio(traced.ops_per_s, untraced.ops_per_s),
        "gen.frame_build_ns": workload.inputs.frame_build_ns,
    }
    steps_before = before.get("step_histograms", {})
    steps_after = after.get("step_histograms", {})
    for kind in STEP_KINDS:
        seconds0, count0 = steps_before.get(kind, (0.0, 0))
        seconds1, count1 = steps_after.get(kind, (0.0, 0))
        values[f"reconciler.step_us.{kind}"] = \
            _ratio(seconds1 - seconds0, count1 - count0) * 1e6
    rtt = getattr(workload, "rtt", {})
    for verb in VERBS:
        values[f"rest.handle_us.{verb}"] = mean_us(f"rest.handle.{verb}")
        handled = tracer.durations(f"rest.handle.{verb}")
        trips = rtt.get(verb, [])
        values[f"rest.socket_overhead_ms.{verb}"] = (
            (statistics.median(trips) - statistics.median(handled)) / 1e6
            if trips and handled else 0.0)
    scrapes = rtt.get("scrape", [])
    sizes = getattr(workload, "scrape_bytes", [])
    values["telemetry.scrape_ms"] = \
        statistics.median(scrapes) / 1e6 if scrapes else 0.0
    values["telemetry.scrape_bytes"] = \
        statistics.fmean(sizes) if sizes else 0.0
    # The reported-only end-to-end figures come from the pass that
    # ran without shims.
    values.update(reported_only(untraced))
    assert set(values) == {metric.name for metric in LAYER_METRICS}
    return values


def reported_only(untraced: Pass) -> dict[str, float]:
    """End-to-end figures that carry no bound (see ``spec``)."""
    activations = sorted(untraced.workload.activations)
    reported = untraced.workload.reported()
    return {
        "activate_ms_p50":
            statistics.median(activations) if activations else 0.0,
        "activate_ms_p95":
            percentile(activations, 0.95) if activations else 0.0,
        "op_tail_us": untraced.op_tail_us,
        "control.converge_ms_per_graph":
            reported.get("control.converge_ms_per_graph", 0.0),
        "control.tick_us_per_graph":
            reported.get("control.tick_us_per_graph", 0.0),
    }


# -- attribution cross-check ------------------------------------------------------

def trace_shares(tracer: SpanTracer) -> dict[str, float]:
    """Share of traced self time per layer (harness spans left out)."""
    by_layer: dict[str, int] = {}
    for prefix, self_ns in tracer.self_ns_by_prefix().items():
        layer = LAYER_OF_PREFIX.get(prefix)
        if layer is not None:
            by_layer[layer] = by_layer.get(layer, 0) + self_ns
    whole = sum(by_layer.values())
    return {layer: _ratio(self_ns, whole)
            for layer, self_ns in by_layer.items()}


_SWITCH_FILES = {"flowtable.py": "switch.flowtable",
                 "actions.py": "switch.actions",
                 "fusion.py": "switch.fusion",
                 "state.py": "switch.state",
                 "datapath.py": "switch.datapath",
                 "lsi.py": "switch.datapath"}


def layer_of_module(filename: str) -> "str | None":
    """The layer a ``repro`` source file folds into, else ``None``.

    ``rest/server.py`` folds nowhere: its handler sits above the
    blocking socket reads, which are no layer's work.
    """
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    parts = filename[at + len(marker):].split("/")
    package = parts[0]
    if package == "switch":
        return _SWITCH_FILES.get(parts[-1])
    if package == "core":
        return "core.steering" if parts[-1] == "steering.py" \
            else "core.reconciler"
    if package == "rest":
        return None if parts[-1] == "server.py" else "rest"
    if package == "ipsec":
        return "linuxnet"
    return package if package in LAYER_OF_PREFIX.values() else None


def profiler_costs(calls: int = 100_000) -> "tuple[float, float]":
    """What ``cProfile`` itself adds per call, in seconds: ``(inside,
    outside)`` — the part it books as the callee's own time and the
    part it books to the caller.  Measured on an empty function (best
    of three); :func:`profile_shares` takes both back out, as the
    trace does with its shims, so call-heavy layers are not inflated
    against loop-heavy ones.
    """
    import cProfile
    import pstats
    import time

    def leaf() -> None:
        pass

    def parent() -> None:
        for _ in range(calls):
            leaf()

    inside = outside = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        parent()
        bare = time.perf_counter() - started
        profile = cProfile.Profile()
        profile.enable()
        parent()
        profile.disable()
        own = {key[2]: row[2]
               for key, row in pstats.Stats(profile).stats.items()}
        inside = min(inside, own["leaf"] / calls)
        outside = min(outside, max(0.0, own["parent"] - bare) / calls)
    return inside, outside


def profile_shares(stats, entry_points=None,
                   costs: "tuple[float, float]" = (0.0, 0.0)
                   ) -> dict[str, float]:
    """Share of profiled own-time per layer from ``pstats.Stats``.

    With ``entry_points`` (the traced run's wrapped functions, keyed as
    ``pstats`` keys them) a layer owns what the trace says it owns: the
    time under its shimmed entry points, down to the next shimmed
    call.  A function that is no entry point — a helper, a builtin, the
    standard library — is charged to whoever called it, in proportion
    to the per-caller own-time ``cProfile`` records, following caller
    chains until an entry point is reached; time that never reaches
    one (the harness, the socket server's accept loop) is left out.

    Without ``entry_points`` every function of a ``repro`` module is
    its own module's layer, and only foreign code is charged to
    callers: the by-module view, which shows where one layer's helpers
    run inside another layer's entry points.

    ``costs`` (:func:`profiler_costs`) is taken out of every function's
    own time first: ``inside`` per call received, ``outside`` per call
    made.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo: dict = {}
    inside, outside = costs
    calls_made: dict = {}
    for row in table.values():
        for caller, edge in row[4].items():  # edge = (nc, cc, tt, ct)
            calls_made[caller] = calls_made.get(caller, 0) + edge[0]

    def home(func) -> "str | None":
        if entry_points is None:
            return layer_of_module(func[0])
        span = entry_points.get(func)
        return LAYER_OF_PREFIX.get(span.split(".", 1)[0]) \
            if span is not None else None

    def spread(func, trail: frozenset) -> dict[str, float]:
        """How one second of ``func``'s own time divides over layers."""
        layer = home(func)
        if layer is not None:
            return {layer: 1.0}
        if func[0].endswith("/repro/rest/server.py") or func in trail:
            return {}
        cached = memo.get(func)
        if cached is not None:
            return cached
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {caller: row[2] for caller, row in callers.items()}
        whole = sum(weights.values())
        if whole <= 0:  # clock too coarse for own time: use call counts
            weights = {caller: row[1] for caller, row in callers.items()}
            whole = sum(weights.values())
        result: dict[str, float] = {}
        if whole > 0:
            for caller, weight in weights.items():
                for layer, part in spread(caller,
                                          trail | {func}).items():
                    result[layer] = result.get(layer, 0.0) \
                        + part * weight / whole
        memo[func] = result
        return result

    by_layer: dict[str, float] = {}
    for func, (_, received, own, _, _) in table.items():
        own = max(0.0, own - inside * received
                  - outside * calls_made.get(func, 0))
        for layer, part in spread(func, frozenset()).items():
            by_layer[layer] = by_layer.get(layer, 0.0) + own * part
    whole = sum(by_layer.values())
    return {layer: _ratio(seconds, whole)
            for layer, seconds in by_layer.items()}
