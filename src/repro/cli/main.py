"""The ``repro`` command.

Subcommands::

    repro table1 [--frame-bytes N]
        Reproduce the paper's Table 1 and print paper-vs-reproduced;
        exits 1 if any flavour's probe frame is lost or leaves the WAN
        in cleartext.

    repro deploy GRAPH.json [--show-flows]
        Deploy an NF-FG JSON document on a fresh CPE node and print
        the placement (VNF vs NNF per NF) and node state.

    repro node
        Print the node description a fresh CPE answers on GET /.

    repro serve [--port P] [--interval S] [--shards N] [--no-loop]
        Start a CPE node, expose its REST API on localhost, and run
        the sharded control loop (reconcile ticks + telemetry +
        autoscaling of persisted scaling policies).

    repro validate GRAPH.json
        Validate an NF-FG document without deploying it.

    repro graph events GRAPH_ID [--url U]
        Print a running node's reconciliation journal for one graph.

    repro graph reconcile GRAPH_ID [--url U]
        Trigger a reconcile-to-convergence (detect + heal) on a
        running node and print the result.

    repro graph status GRAPH_ID [--url U]
        Print a running node's status document for one graph.

    repro top [--url U] [--watch SECONDS]
        Per-NF load view of a running node: replica counts, pps,
        bytes/s, MTTR and heal counts from the telemetry registry.
        With ``--watch`` it redraws every SECONDS until interrupted;
        a transiently unreachable node (restart, deploy) is retried
        with backoff behind a stale-data banner instead of exiting.

    repro trace [--flight] [--url U]
        Print the node's recent sampled trace spans as a tree, or —
        with ``--flight`` — the flight-recorder dumps frozen by
        anomaly triggers (slow tick, invalidation storm, heal,
        journal drop).

The ``graph``, ``top`` and ``trace`` subcommands talk HTTP to a node
started with ``repro serve`` (default ``--url http://127.0.0.1:8080``);
their ``--timeout`` flag bounds each request (default 30s —
reconciling a loaded node legitimately takes longer than a short
connect timeout).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from repro.core.node import ComputeNode
from repro.nffg.json_codec import nffg_from_json
from repro.nffg.validate import NffgValidationError, validate_nffg

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (0 < value and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {value:g}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Native Network Functions NFV node (SIGCOMM'16 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="reproduce the paper's Table 1")
    table1.add_argument("--frame-bytes", type=_positive_int, default=1500)

    deploy = sub.add_parser("deploy", help="deploy an NF-FG JSON document")
    deploy.add_argument("graph", help="path to the NF-FG JSON file")
    deploy.add_argument("--show-flows", action="store_true",
                        help="dump the resulting LSI flow tables")

    sub.add_parser("node", help="print the node description")

    serve = sub.add_parser("serve", help="serve the REST API on localhost")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--interval", type=_positive_seconds, default=1.0,
                       help="control-loop period in seconds "
                            "(tick + sample + autoscale)")
    serve.add_argument("--shards", type=_positive_int, default=2,
                       help="reconcile-loop worker shards "
                            "(graphs hash to a shard; 1 disables)")
    serve.add_argument("--no-loop", action="store_true",
                       help="serve REST only, without the control loop")

    validate = sub.add_parser("validate", help="validate an NF-FG document")
    validate.add_argument("graph", help="path to the NF-FG JSON file")

    graph = sub.add_parser(
        "graph", help="inspect/drive a live graph on a running node")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    for name, text in (("events", "print the reconciliation journal"),
                       ("reconcile", "reconcile to convergence (heal)"),
                       ("status", "print the graph status document")):
        leaf = graph_sub.add_parser(name, help=text)
        leaf.add_argument("graph_id", help="graph id on the serving node")
        leaf.add_argument("--url", default="http://127.0.0.1:8080",
                          help="base URL of the node's REST API")
        leaf.add_argument("--timeout", type=float, default=30.0,
                          help="HTTP timeout in seconds (reconcile on a "
                               "loaded node can exceed short timeouts)")

    top = sub.add_parser(
        "top", help="per-NF load/replica/availability view of a node")
    top.add_argument("--url", default="http://127.0.0.1:8080",
                     help="base URL of the node's REST API")
    top.add_argument("--watch", type=_positive_seconds, default=None,
                     metavar="SECONDS",
                     help="redraw every SECONDS until interrupted")
    top.add_argument("--timeout", type=float, default=30.0,
                     help="HTTP timeout in seconds")

    trace = sub.add_parser(
        "trace", help="recent sampled trace spans / flight dumps")
    trace.add_argument("--flight", action="store_true",
                       help="print frozen flight-recorder dumps instead "
                            "of the live span ring")
    trace.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the node's REST API")
    trace.add_argument("--timeout", type=float, default=30.0,
                       help="HTTP timeout in seconds")
    return parser


def _fresh_node() -> ComputeNode:
    node = ComputeNode("cpe")
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    return node


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.perf.table1 import render_table, run_table1
    rows = run_table1(frame_bytes=args.frame_bytes)
    print(render_table(rows))
    bad = [f"{row.flavor} ({'cleartext' if row.probe_delivered else 'lost'})"
           for row in rows if not (row.probe_delivered and row.esp_on_wire)]
    if bad:
        print(f"warning: dataplane probe failed for: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    return 0


def _load_graph(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return nffg_from_json(handle.read())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")


def _cmd_deploy(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    node = _fresh_node()
    record = node.deploy(graph)
    print(f"deployed graph {graph.graph_id!r} "
          f"({record.rules_installed} flow rules, "
          f"{record.modeled_deploy_seconds:.2f}s modeled deploy time)")
    for nf_id, technology in sorted(record.technologies().items()):
        shared = record.instances[nf_id].shared
        print(f"  {nf_id}: {technology}"
              + (" (shared NNF)" if shared else ""))
    if args.show_flows:
        print(node.steering.describe())
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    print(json.dumps(_fresh_node().describe(), indent=2, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.rest.server import serve_node
    node = _fresh_node()
    loop = None
    if not args.no_loop:
        # The control loop is what makes persisted scaling policies
        # live: any graph PUT with "scaling-policies" (or a later
        # PUT /graphs/{id}/policies) autoscales with no driver script.
        from repro.telemetry.autoscaler import Autoscaler
        from repro.telemetry.loop import ControlLoop
        autoscaler = Autoscaler(reconciler=node.orchestrator.reconciler,
                                registry=node.telemetry)
        loop = ControlLoop(node.orchestrator, node.telemetry,
                           autoscaler=autoscaler, interval=args.interval,
                           shards=args.shards).start()
    server = serve_node(node, port=args.port)
    loop_note = ("no control loop" if loop is None else
                 f"control loop every {args.interval:g}s, "
                 f"{args.shards} shard(s)")
    print(f"serving node {node.name!r} on {server.url} "
          f"({loop_note}; Ctrl-C to stop)")
    try:
        import time
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        if loop is not None:
            loop.stop()
        server.stop()
        print("stopped")
    return 0


class NodeUnreachable(Exception):
    """Connection-level failure against a serving node (no HTTP reply).

    Distinct from an HTTP error status: the watch loop treats this as
    transient (a restarting server) and retries with backoff, while
    one-shot commands turn it into a ``SystemExit``.
    """


def _fetch(method: str, url: str, timeout: float = 30.0):
    """One JSON request; raises :class:`NodeUnreachable` on refusal."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return json.loads(reply.read() or b"null")
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read() or b"{}").get("error", "")
        except ValueError:
            detail = ""
        raise SystemExit(
            f"{url}: HTTP {exc.code}" + (f" — {detail}" if detail else ""))
    except urllib.error.URLError as exc:
        raise NodeUnreachable(
            f"cannot reach {url}: {exc.reason} (is `repro serve` running?)")


def _http(method: str, url: str, timeout: float = 30.0):
    """One JSON request against a serving node; exits on refusal."""
    try:
        return _fetch(method, url, timeout=timeout)
    except NodeUnreachable as exc:
        raise SystemExit(str(exc))


def _cmd_graph(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    graph_id = args.graph_id
    timeout = args.timeout
    if args.graph_command == "events":
        document = _http("GET", f"{base}/graphs/{graph_id}/events",
                         timeout=timeout)
        for event in document["events"]:
            target = event.get("nf-id") or event.get("rule-id") or ""
            detail = event.get("detail", "")
            line = f"{event['seq']:>5}  {event['kind']:<15} {target:<12}"
            print(f"{line} {detail}".rstrip())
        dropped = document.get("dropped", 0)
        if dropped:
            print(f"(ring buffer full: {dropped} older event(s) dropped, "
                  f"max-events={document.get('max-events', '?')})")
        return 0
    if args.graph_command == "reconcile":
        # A non-converging graph surfaces as an HTTP 409 (SystemExit in
        # _http); a 200 reply always means convergence.
        document = _http("POST", f"{base}/graphs/{graph_id}/reconcile",
                         timeout=timeout)
        print(f"graph {graph_id!r}: converged after {document['ticks']} "
              f"tick(s), {document['steps-executed']} step(s) executed")
        return 0
    document = _http("GET", f"{base}/nffg/{graph_id}/status",
                     timeout=timeout)
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


#: Backoff ceiling for ``repro top --watch`` against an unreachable node.
_WATCH_BACKOFF_CAP = 30.0


def watch_top(base: str, interval: float, timeout: float,
              iterations: Optional[int] = None,
              fetch=None, sleep=None, out=print) -> int:
    """The ``repro top --watch`` loop, with reconnect backoff.

    A transiently unreachable node (restarting server, mid-deploy
    hiccup) keeps the last good table on screen behind a stale-data
    banner and retries with exponential backoff (capped at
    ``_WATCH_BACKOFF_CAP``) instead of raising through the CLI; the
    first successful fetch resets the cadence.  ``iterations``,
    ``fetch``, ``sleep`` and ``out`` are injectable for tests.
    """
    from repro.telemetry.export import render_top
    if fetch is None:
        fetch = _fetch
    if sleep is None:
        import time as _time
        sleep = _time.sleep
    delay = interval
    last_document = None
    drawn = 0
    while iterations is None or drawn < iterations:
        drawn += 1
        try:
            document = fetch("GET", f"{base}/metrics.json",
                             timeout=timeout)
        except NodeUnreachable as exc:
            delay = min(max(delay * 2, interval), _WATCH_BACKOFF_CAP)
            stale = (render_top(last_document)
                     if last_document is not None else "(no data yet)")
            out("\033[2J\033[H" + stale
                + f"\n\n[stale] {exc} — retrying in {delay:g}s")
            sleep(delay)
            continue
        delay = interval
        last_document = document
        out("\033[2J\033[H" + render_top(document)
            + f"\n\n(samples={document.get('samples', 0)}; "
              f"refresh every {interval:g}s, Ctrl-C to stop)")
        sleep(interval)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry.export import render_top
    base = args.url.rstrip("/")
    if args.watch is None:
        print(render_top(_http("GET", f"{base}/metrics.json",
                               timeout=args.timeout)))
        return 0
    try:
        return watch_top(base, args.watch, args.timeout)
    except KeyboardInterrupt:
        return 0


def _print_span_tree(spans: list, indent: str = "") -> None:
    by_id = {span.get("span-id"): span for span in spans}
    children: dict = {}
    roots = []
    for span in spans:
        parent = span.get("parent-id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    def emit(span: dict, depth: int) -> None:
        start, end = span.get("wall-start"), span.get("wall-end")
        duration = (f" {1e3 * (end - start):.3f}ms"
                    if start is not None and end is not None else "")
        seq = span.get("seq")
        seq_text = f" seq={seq}" if seq is not None else ""
        attrs = span.get("attrs") or {}
        attr_text = " ".join(f"{key}={attrs[key]}"
                             for key in sorted(attrs))
        print(f"{indent}{'  ' * depth}{span.get('name', '?')}"
              f"{duration}{seq_text}"
              + (f" [{attr_text}]" if attr_text else ""))
        for child in children.get(span.get("span-id"), ()):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)


def _cmd_trace(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    if args.flight:
        document = _http("GET", f"{base}/traces/flight",
                         timeout=args.timeout)
        dumps = document.get("dumps", [])
        if not dumps:
            print("(no flight-recorder dumps frozen)")
            return 0
        for dump in dumps:
            seq = dump.get("seq")
            print(f"dump: reason={dump.get('reason', '?')!r} "
                  f"seq={seq if seq is not None else '-'} "
                  f"sim={dump.get('sim', 0):g} "
                  f"spans={len(dump.get('spans', []))} "
                  f"{dump.get('detail', '')}".rstrip())
            _print_span_tree(dump.get("spans", []), indent="  ")
        return 0
    document = _http("GET", f"{base}/traces", timeout=args.timeout)
    spans = document.get("spans", [])
    print(f"sampling 1/{document.get('sample-every', '?')}, "
          f"{document.get('sampled-batches', 0)} sampled batch(es), "
          f"{len(spans)} retained span(s)")
    _print_span_tree(spans)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    try:
        validate_nffg(graph)
    except NffgValidationError as exc:
        print(f"{args.graph}: INVALID")
        for problem in exc.problems:
            print(f"  - {problem}")
        return 1
    print(f"{args.graph}: OK ({len(graph.nfs)} NFs, "
          f"{len(graph.flow_rules)} rules)")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "deploy": _cmd_deploy,
    "node": _cmd_node,
    "serve": _cmd_serve,
    "validate": _cmd_validate,
    "graph": _cmd_graph,
    "top": _cmd_top,
    "trace": _cmd_trace,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
