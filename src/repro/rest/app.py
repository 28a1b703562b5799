"""The REST application: routing plus the node's API handlers."""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.node import ComputeNode
from repro.core.orchestrator import OrchestrationError
from repro.nffg.json_codec import nffg_from_dict, nffg_to_dict

__all__ = ["HttpError", "Request", "Response", "RestApp"]


class HttpError(Exception):
    """Maps to a non-2xx response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    method: str
    path: str
    body: bytes = b""
    params: dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from exc


@dataclass
class Response:
    status: int
    body: Any = None
    #: plain-text payload (Prometheus exposition); mutually exclusive
    #: with ``body`` — set, it wins and the content type flips.
    text: Optional[str] = None

    def to_bytes(self) -> bytes:
        if self.text is not None:
            return self.text.encode()
        if self.body is None:
            return b""
        return json.dumps(self.body, indent=2, sort_keys=True).encode()

    @property
    def content_type(self) -> str:
        if self.text is not None:
            return "text/plain; version=0.0.4; charset=utf-8"
        return "application/json"

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


Handler = Callable[[Request], Response]


class RestApp:
    """Pattern router + the node endpoints."""

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self._routes: list[tuple[str, re.Pattern, str, Handler]] = []
        self.requests_served = 0
        self._register_default_routes()

    # -- routing -----------------------------------------------------------------
    def route(self, method: str, pattern: str, handler: Handler) -> None:
        """Register a handler; ``{name}`` segments become params."""
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$")
        self._routes.append((method.upper(), regex, pattern, handler))

    def handle(self, method: str, path: str, body: bytes = b"") -> Response:
        self.requests_served += 1
        matched_path = False
        for route_method, regex, pattern, handler in self._routes:
            hit = regex.match(path)
            if hit is None:
                continue
            matched_path = True
            if route_method != method.upper():
                continue
            request = Request(method=method.upper(), path=path, body=body,
                              params=hit.groupdict())
            # Dispatch latency is labelled by the route *pattern*, not
            # the concrete path — bounded label cardinality no matter
            # how many graphs are deployed.
            tracer = getattr(self.node, "tracer", None)
            started = time.perf_counter() if tracer is not None else 0.0
            try:
                return handler(request)
            except HttpError as exc:
                return Response(exc.status, {"error": exc.message})
            except OrchestrationError as exc:
                return Response(409, {"error": str(exc)})
            finally:
                if tracer is not None:
                    tracer.histograms.observe(
                        "rest_dispatch", (request.method, pattern),
                        time.perf_counter() - started)
        if matched_path:
            return Response(405, {"error": f"method {method} not allowed "
                                           f"on {path}"})
        return Response(404, {"error": f"no such resource {path}"})

    # -- node endpoints ------------------------------------------------------------
    def _register_default_routes(self) -> None:
        self.route("GET", "/", self._get_root)
        self.route("GET", "/nffg", self._list_graphs)
        self.route("PUT", "/nffg/{graph_id}", self._put_graph)
        self.route("GET", "/nffg/{graph_id}", self._get_graph)
        self.route("GET", "/nffg/{graph_id}/status", self._get_status)
        self.route("DELETE", "/nffg/{graph_id}", self._delete_graph)
        self.route("GET", "/nnfs", self._list_nnfs)
        self.route("POST", "/traffic/{interface}", self._inject_traffic)
        self.route("GET", "/graphs/{graph_id}/events", self._get_events)
        self.route("GET", "/graphs/{graph_id}/policies", self._get_policies)
        self.route("PUT", "/graphs/{graph_id}/policies", self._put_policies)
        self.route("POST", "/graphs/{graph_id}/reconcile", self._reconcile)
        self.route("GET", "/metrics", self._get_metrics)
        self.route("GET", "/metrics.json", self._get_metrics_json)
        self.route("GET", "/graphs/{graph_id}/metrics",
                   self._get_graph_metrics)
        self.route("GET", "/traces", self._get_traces)
        self.route("GET", "/traces/flight", self._get_flight)

    def _get_root(self, request: Request) -> Response:
        return Response(200, self.node.describe())

    def _list_graphs(self, request: Request) -> Response:
        return Response(200, {"nffgs": self.node.orchestrator.list_graphs()})

    def _put_graph(self, request: Request) -> Response:
        """Deploy-or-update (upsert) one NF-FG.

        Delegates the deployed-or-not decision to
        :meth:`LocalOrchestrator.apply`, which holds the graph lock
        across the check *and* the verb — the handler-side
        check-then-act this used to do raced concurrent PUTs of the
        same graph into spurious 409s (both threads saw "not deployed",
        both called deploy, one lost).
        """
        document = request.json()
        try:
            graph = nffg_from_dict(document)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        graph_id = request.params["graph_id"]
        if graph.graph_id != graph_id:
            raise HttpError(400, f"graph id {graph.graph_id!r} in body "
                                 f"does not match URL {graph_id!r}")
        _, created = self.node.apply(graph)
        return Response(201 if created else 200,
                        self.node.orchestrator.status(graph_id))

    def _get_graph(self, request: Request) -> Response:
        graph_id = request.params["graph_id"]
        record = self.node.orchestrator.deployed.get(graph_id)
        if record is None:
            raise HttpError(404, f"graph {graph_id!r} is not deployed")
        return Response(200, nffg_to_dict(record.graph))

    def _get_status(self, request: Request) -> Response:
        graph_id = request.params["graph_id"]
        if graph_id not in self.node.orchestrator.deployed:
            raise HttpError(404, f"graph {graph_id!r} is not deployed")
        return Response(200, self.node.orchestrator.status(graph_id))

    def _delete_graph(self, request: Request) -> Response:
        graph_id = request.params["graph_id"]
        if graph_id not in self.node.orchestrator.deployed:
            raise HttpError(404, f"graph {graph_id!r} is not deployed")
        self.node.undeploy(graph_id)
        return Response(204)

    def _list_nnfs(self, request: Request) -> Response:
        return Response(200, {"nnfs": self.node.nnf_registry.describe()})

    def _get_events(self, request: Request) -> Response:
        """The graph's reconciliation journal, oldest first.

        The journal outlives the graph — events of an undeployed (or
        crashed-and-healed) graph stay readable for post-mortems until
        enough later removals push its retired log out
        (:meth:`~repro.core.reconciler.EventJournal.retire`), so 404
        means the engine never touched that graph_id or removed it
        long ago.
        """
        graph_id = request.params["graph_id"]
        events = self.node.orchestrator.events(graph_id)
        if not events \
                and graph_id not in self.node.orchestrator.deployed:
            raise HttpError(404, f"no events for graph {graph_id!r}")
        journal = self.node.orchestrator.journal
        return Response(200, {"graph-id": graph_id,
                              "events": [e.to_dict() for e in events],
                              "dropped": journal.dropped_count(graph_id),
                              "max-events": journal.max_events})

    def _get_policies(self, request: Request) -> Response:
        """The graph's persisted scaling policies (durable graph state)."""
        graph_id = request.params["graph_id"]
        raw = self.node.orchestrator.reconciler.desired_raw.get(graph_id)
        if raw is None:
            raise HttpError(404, f"graph {graph_id!r} is not deployed")
        return Response(200, {"graph-id": graph_id,
                              "scaling-policies": [p.to_dict()
                                                   for p in raw.policies]})

    def _put_policies(self, request: Request) -> Response:
        """Replace the graph's scaling policies wholesale.

        Body: ``{"scaling-policies": [...]}`` or a bare policy array;
        an empty array clears autoscaling for the graph.  Policies land
        in the reconciler's durable desired state — they serialize with
        the NF-FG, survive plain graph re-PUTs, and the control loop
        honors them with no driver script attached.
        """
        from repro.nffg.model import Nffg, ScalingPolicy
        from repro.nffg.validate import NffgValidationError, validate_nffg

        document = request.json()
        if isinstance(document, dict):
            entries = document.get("scaling-policies")
        else:
            entries = document
        if not isinstance(entries, list):
            raise HttpError(400, 'body must be {"scaling-policies": [...]} '
                                 "or a policy array")
        try:
            policies = [ScalingPolicy.from_dict(entry) for entry in entries]
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        graph_id = request.params["graph_id"]
        reconciler = self.node.orchestrator.reconciler
        # The read-modify-write of the desired graph must not interleave
        # with a concurrent PUT /nffg/{id} or an autoscaler evaluation.
        with reconciler.lock(graph_id):
            raw = reconciler.desired_raw.get(graph_id)
            if raw is None:
                raise HttpError(404, f"graph {graph_id!r} is not deployed")
            new_graph = Nffg(graph_id=raw.graph_id, name=raw.name,
                             nfs=list(raw.nfs),
                             endpoints=list(raw.endpoints),
                             flow_rules=list(raw.flow_rules),
                             policies=policies)
            try:
                validate_nffg(new_graph)
            except NffgValidationError as exc:
                raise HttpError(400, f"invalid policies: {exc}") from exc
            reconciler.set_desired(new_graph)
        return Response(200, {"graph-id": graph_id,
                              "scaling-policies": [p.to_dict()
                                                   for p in policies]})

    def _reconcile(self, request: Request) -> Response:
        """Run the reconciler to convergence for one graph.

        Probes instance health, compiles and executes plans until the
        observed state matches the desired one — the manual "heal now"
        trigger (the same engine deploy/update run internally).
        """
        graph_id = request.params["graph_id"]
        if graph_id not in self.node.orchestrator.deployed \
                and graph_id not in \
                self.node.orchestrator.reconciler.desired:
            raise HttpError(404, f"graph {graph_id!r} is not deployed")
        result = self.node.orchestrator.reconcile(graph_id)
        return Response(200, result.to_dict())

    def _get_metrics(self, request: Request) -> Response:
        """Node metrics in Prometheus text exposition format.

        Each scrape takes a fresh sample first — a node without a
        running control loop still reports correct totals, and rates
        appear from the second scrape on (rate windows are derived
        between consecutive samples, whoever takes them).
        """
        from repro.telemetry.export import render_prometheus

        self.node.telemetry.sample()
        text = render_prometheus(self.node.telemetry)
        tracer = getattr(self.node, "tracer", None)
        if tracer is not None:
            from repro.telemetry.histograms import render_histograms
            text += render_histograms(tracer.histograms)
        return Response(200, text=text)

    def _get_metrics_json(self, request: Request) -> Response:
        """The same registry as a JSON document (the `repro top` feed)."""
        self.node.telemetry.sample()
        document = self.node.telemetry.to_dict()
        tracer = getattr(self.node, "tracer", None)
        if tracer is not None:
            document["histograms"] = tracer.histograms.to_dict()
            document["tracing"] = tracer.stats()
        return Response(200, document)

    def _get_traces(self, request: Request) -> Response:
        """The live span ring: recent sampled spans + sampler stats."""
        tracer = getattr(self.node, "tracer", None)
        if tracer is None:
            raise HttpError(404, "tracing is not enabled on this node")
        return Response(200, tracer.traces_document())

    def _get_flight(self, request: Request) -> Response:
        """Frozen flight-recorder dumps (anomaly captures)."""
        tracer = getattr(self.node, "tracer", None)
        if tracer is None:
            raise HttpError(404, "tracing is not enabled on this node")
        return Response(200, tracer.flight_document())

    def _get_graph_metrics(self, request: Request) -> Response:
        """Per-graph rates, replica counts and availability metrics."""
        graph_id = request.params["graph_id"]
        if graph_id not in self.node.orchestrator.deployed:
            raise HttpError(404, f"graph {graph_id!r} is not deployed")
        self.node.telemetry.sample()
        return Response(200, self.node.telemetry.graph_metrics(graph_id))

    def _inject_traffic(self, request: Request) -> Response:
        """Inject a batch of frames into a node interface.

        Body: ``{"frames": ["<hex frame bytes>", ...]}``.  The whole
        batch enters LSI-0 in one
        :meth:`~repro.core.steering.TrafficSteeringManager.inject_batch`
        call, i.e. through the batched zero-reparse pipeline — REST
        driven traffic takes the same fast path as device ingress.
        """
        from repro.core.steering import SteeringError
        from repro.net.ethernet import EthernetFrame

        document = request.json()
        if not isinstance(document, dict) or "frames" not in document:
            raise HttpError(400, 'body must be {"frames": [...]}')
        encoded = document["frames"]
        if not isinstance(encoded, list) or not encoded:
            raise HttpError(400, '"frames" must be a non-empty list')
        frames = []
        for index, item in enumerate(encoded):
            if not isinstance(item, str):
                raise HttpError(400, f"frame {index} is not a hex string")
            # Decode everything up front so a malformed frame rejects
            # the request before any part of the batch is injected.
            try:
                frames.append(EthernetFrame.from_bytes(bytes.fromhex(item)))
            except ValueError as exc:
                raise HttpError(
                    400, f"frame {index} is malformed: {exc}") from exc
        interface = request.params["interface"]
        try:
            self.node.steering.inject_batch(interface, frames)
        except SteeringError as exc:
            raise HttpError(404, str(exc)) from exc
        return Response(200, {"injected": len(frames)})
