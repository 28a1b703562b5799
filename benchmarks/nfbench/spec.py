"""What nfbench measures: workloads, end-to-end metrics, layer metrics.

This module is the single declaration the runner, the traced run, the
smoke test and the root ``BENCHMARK.json`` all agree on (the smoke
test fails when the JSON drifts from it).  Nothing here runs anything.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["END_TO_END", "EndToEnd", "LAYER_METRICS", "LayerMetric",
           "STEP_KINDS", "VERBS", "WORKLOADS", "Workload", "benchmark_json"]


class Workload(NamedTuple):
    name: str
    why: str
    #: what one closed-loop operation is (``ops_per_s`` counts
    #: ``unit_per_op`` x ops, ``op_*_us`` time one op)
    op: str
    #: percentile reported as ``op_tail_us`` (reported only): the
    #: highest one that keeps >= 10 samples beyond it at the shipped
    #: run length
    tail: float


WORKLOADS = (
    Workload(
        "switch-fast",
        "bare 4-hop switch, port-only rules: every frame is a dispatch "
        "hit into one fused program; the no-change control for NF and "
        "control-plane work",
        "one 256-frame process_batch_from call (ops_per_s in frames/s)",
        0.99),
    Workload(
        "switch-mixed",
        "same 4 hops with the rules steering really emits: indexed "
        "lookups behind a negative dispatch slot, stateful select with "
        "inserts and evictions, flow-mods that invalidate fused programs",
        "one cycle = a 256-frame batch on the dispatch port plus one on "
        "the lookup port, with the periodic flow-mod (frames/s)",
        0.99),
    Workload(
        "node-nat",
        "the paper's scenario: 16 subscriber graphs through the shared "
        "native iptables NAT of a full ComputeNode, so namespace "
        "forwarding, conntrack and per-frame Datapath.process dominate",
        "one 256-frame steering.inject_batch call, 64 B and 1400 B UDP "
        "interleaved (frames/s)",
        0.95),
    Workload(
        "control-churn",
        "create/activate/update/status/delete of subscriber graphs over "
        "a real keep-alive REST socket beside a converged 512-graph "
        "fleet; the no-change control for dataplane work",
        "one REST request round trip on the socket (requests/s)",
        0.95),
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.10,
             "system built from the generated inputs until ready: "
             "topology or node built, server listening, graphs deployed "
             "over the socket (node-nat) or converged (control-churn), "
             "first frame delivered, warm-up cycles done; quiet-host "
             "estimate over the run's set-up repetitions"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.10,
             "verified work per second of busy time at quiet-host speed: "
             "frames delivered and correct (forwarding) or 2xx replies "
             "(control-churn)"),
    EndToEnd("op_p50_us", "us", "lower", 0.10,
             "wall time of one closed-loop operation, median in the "
             "quiet slices of the window"),
    EndToEnd("rss_mb", "MB", "lower", 0.10,
             "peak resident set at the end of the window (getrusage)"),
)

#: plan step kinds, in the reconciler's canonical order
STEP_KINDS = ("create-network", "delete-rule", "stop", "destroy-network",
              "destroy", "place", "create", "configure", "reconfigure",
              "restart", "install-rule", "start")

#: REST verbs the control workload issues
VERBS = ("PUT", "GET", "DELETE")


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: the end-to-end metric (and workload) this is expected to move
    moves: str


def _layer(layer: str, moves: str, *rows: "tuple[str, str, str]"):
    return [LayerMetric(name, unit, better, layer, moves)
            for name, unit, better in rows]


LAYER_METRICS = tuple(
    _layer("net",
           "ops_per_s on switch-mixed, node-nat; no change on switch-fast "
           "(0 parses)",
           ("net.parse_ns", "ns", "lower"),
           ("net.from_bytes_ns", "ns", "lower"),
           ("net.parse_calls_per_frame", "ratio", "lower"))
    + _layer("switch.flowtable",
             "lookup: ops_per_s switch-mixed; add/delete: "
             "activate_ms_p50, op_tail_us switch-mixed; no change on "
             "switch-fast",
             ("flowtable.lookup_ns", "ns", "lower"),
             ("flowtable.add_us", "us", "lower"),
             ("flowtable.delete_us", "us", "lower"),
             ("flowtable.entries", "count", "lower"))
    + _layer("switch.actions",
             "exec: ops_per_s node-nat, switch-mixed; compile: "
             "activate_ms_p50",
             ("actions.compile_us", "us", "lower"),
             ("actions.exec_ns.output", "ns", "lower"),
             ("actions.exec_ns.push-output", "ns", "lower"),
             ("actions.exec_ns.pop-output", "ns", "lower"),
             ("actions.exec_ns.select", "ns", "lower"))
    + _layer("switch.fusion",
             "shares: ops_per_s (switch-fast must read 1.0); trace_us / "
             "invalidations: op_tail_us switch-mixed",
             ("fusion.dispatch_hit_share", "ratio", "higher"),
             ("fusion.fused_hit_share", "ratio", "higher"),
             ("fusion.programs_built", "count", "lower"),
             ("fusion.invalidations", "count", "lower"),
             ("fusion.trace_us", "us", "lower"))
    + _layer("switch.state",
             "ops_per_s, op_tail_us switch-mixed; no change elsewhere",
             ("state.steer_hit_ns", "ns", "lower"),
             ("state.steer_insert_ns", "ns", "lower"),
             ("state.pinned", "count", "higher"),
             ("state.inserted", "count", "lower"),
             ("state.evicted", "count", "lower"))
    + _layer("switch.datapath",
             "batch: ops_per_s switch-fast; process_ns x perframe_share: "
             "ops_per_s node-nat",
             ("datapath.batch_ns_per_frame", "ns", "lower"),
             ("datapath.process_ns", "ns", "lower"),
             ("datapath.perframe_share", "ratio", "lower"))
    + _layer("linuxnet",
             "first six: ops_per_s, op_tail_us node-nat; cmd_us: "
             "activate_ms_p50, setup_s control-churn; no change on "
             "switch-*",
             ("linuxnet.device_xmit_ns", "ns", "lower"),
             ("linuxnet.ns_forward_us", "us", "lower"),
             ("linuxnet.iptables_traverse_ns", "ns", "lower"),
             ("linuxnet.conntrack_lookup_ns", "ns", "lower"),
             ("linuxnet.conntrack_create_ns", "ns", "lower"),
             ("linuxnet.conntrack_entries", "count", "lower"),
             ("linuxnet.cmd_us", "us", "lower"))
    + _layer("nnf/compute",
             "verbs: activate_ms_p50, setup_s control-churn; health_us: "
             "control.tick_us_per_graph",
             ("compute.create_us", "us", "lower"),
             ("compute.configure_us", "us", "lower"),
             ("compute.start_us", "us", "lower"),
             ("compute.destroy_us", "us", "lower"),
             ("compute.health_us", "us", "lower"),
             ("nnf.shared_attach_us", "us", "lower"))
    + _layer("core.steering",
             "activate_ms_p50, ops_per_s control-churn; inject_self_ns: "
             "ops_per_s node-nat",
             ("steering.create_network_us", "us", "lower"),
             ("steering.install_rule_us", "us", "lower"),
             ("steering.uninstall_rule_us", "us", "lower"),
             ("steering.invalidate_fusion_us", "us", "lower"),
             ("steering.inject_self_ns", "ns", "lower"))
    + _layer("openflow",
             "activate_ms_p50, setup_s control-churn",
             ("openflow.flowmod_us", "us", "lower"),
             ("openflow.msgs_per_graph", "count", "lower"))
    + _layer("core.reconciler",
             "plan/steps: activate_ms_p50, setup_s control-churn; "
             "noop_tick_us: control.tick_us_per_graph",
             ("reconciler.set_desired_us", "us", "lower"),
             ("reconciler.plan_us", "us", "lower"),
             *((f"reconciler.step_us.{kind}", "us", "lower")
               for kind in STEP_KINDS),
             ("reconciler.noop_tick_us", "us", "lower"),
             ("reconciler.lock_wait_us", "us", "lower"))
    + _layer("nffg",
             "op_p50_us, activate_ms_p50 control-churn",
             ("nffg.decode_us", "us", "lower"),
             ("nffg.validate_us", "us", "lower"),
             ("nffg.expand_us", "us", "lower"),
             ("nffg.diff_us", "us", "lower"),
             ("nffg.encode_us", "us", "lower"))
    + _layer("catalog/resources",
             "activate_ms_p50",
             ("catalog.resolve_us", "us", "lower"),
             ("resources.admit_us", "us", "lower"))
    + _layer("rest",
             "op_p50_us, op_tail_us, ops_per_s, activate_ms_p50 on "
             "control-churn; no change on forwarding workloads",
             *((f"rest.handle_us.{verb}", "us", "lower") for verb in VERBS),
             ("rest.encode_us", "us", "lower"),
             *((f"rest.socket_overhead_ms.{verb}", "ms", "lower")
               for verb in VERBS))
    + _layer("telemetry",
             "op_tail_us control-churn (the scrape cycles), "
             "control.tick_us_per_graph",
             ("telemetry.sample_us", "us", "lower"),
             ("telemetry.scrape_ms", "ms", "lower"),
             ("telemetry.scrape_bytes", "bytes", "lower"))
    + _layer("end-to-end (reported only)",
             "demoted from the bounded set: on this host their run-to-run "
             "spread exceeds a tenth (see README), so they are printed "
             "and recorded but gate nothing",
             ("activate_ms_p50", "ms", "lower"),
             ("activate_ms_p95", "ms", "lower"),
             ("op_tail_us", "us", "lower"),
             ("control.converge_ms_per_graph", "ms", "lower"),
             ("control.tick_us_per_graph", "us", "lower"))
    + _layer("harness",
             "none: reported so shim and generator cost are never "
             "mistaken for program cost",
             ("trace.overhead_share", "ratio", "lower"),
             ("gen.frame_build_ns", "ns", "lower"))
)

#: the driver's measuring time per run, and the seed used when none is given
RUN_SECONDS = 20
DEFAULT_SEED = 1


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json`` document, generated from this spec."""
    return {
        "command": ["python3", "benchmarks/nfbench/__main__.py"],
        "paths": ["benchmarks/nfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LAYER_METRICS],
    }
