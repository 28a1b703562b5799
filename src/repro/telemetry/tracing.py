"""Span tracing, a 1-in-N batch sampler, and the flight recorder.

Three cooperating pieces:

* :class:`Span` — a trace node with deterministic counter-derived ids
  (no randomness, so a sim-clock run produces the *same* span tree
  every time), dual timestamps (``wall`` from ``perf_counter`` for real
  latency, ``sim`` from the journal clock for deterministic replay)
  and an optional :class:`~repro.core.reconciler.EventJournal`
  sequence number that correlates the span with the journal entry it
  accompanied.

* :class:`Tracer` — owns the id counter, the
  :class:`~repro.telemetry.histograms.HistogramRegistry` families for
  both planes, the 1-in-N batch sampler state, and the anomaly
  triggers (slow control tick, fusion invalidation storm, heal,
  journal drop).  The dataplane reads
  ``batch_counter``/``sample_every`` *inline* — an unsampled batch
  pays one attribute read and one counter compare, nothing else.

* :class:`FlightRecorder` — bounded rings of the last K finished spans
  and histogram snapshots, continuously overwritten; an anomaly
  freezes both rings into an immutable dump (with the trigger's
  journal seq) so the moments *before* the incident survive it.
"""

import itertools
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.telemetry.histograms import HistogramRegistry


class Span:
    """One node of a trace tree.  Finished spans are frozen to dicts."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start_wall", "start_sim", "end_wall", "end_sim",
                 "attrs", "seq")

    def to_dict(self) -> dict:
        return {
            "trace-id": self.trace_id,
            "span-id": self.span_id,
            "parent-id": self.parent_id,
            "name": self.name,
            "wall-start": self.start_wall,
            "wall-end": self.end_wall,
            "sim-start": self.start_sim,
            "sim-end": self.end_sim,
            "seq": self.seq,
            "attrs": dict(self.attrs),
        }


class FlightRecorder:
    """Bounded rings of recent spans + histogram snapshots, with dumps.

    ``record``/``snapshot`` keep overwriting the rings; ``freeze``
    copies both into a dump (itself on a bounded ring) that survives
    further traffic.  All mutation is behind one lock — the recorder
    is fed from the dataplane (sampled batches only), the control
    loop, and REST handler threads.
    """

    def __init__(self, span_capacity: int = 256,
                 snapshot_capacity: int = 16, max_dumps: int = 8):
        if span_capacity <= 0 or max_dumps <= 0:
            raise ValueError("flight recorder capacities must be positive")
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=span_capacity)
        self._snapshots: deque = deque(maxlen=snapshot_capacity)
        self.dumps: deque = deque(maxlen=max_dumps)
        self.recorded = 0
        self.frozen = 0

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span.to_dict())
            self.recorded += 1

    def snapshot(self, histograms: HistogramRegistry,
                 wall: float, sim: float) -> None:
        with self._lock:
            self._snapshots.append({"wall": wall, "sim": sim,
                                    "histograms": histograms.snapshot()})

    def freeze(self, reason: str, detail: str = "",
               seq: Optional[int] = None, graph_id: str = "",
               wall: float = 0.0, sim: float = 0.0,
               histograms: Optional[HistogramRegistry] = None) -> dict:
        with self._lock:
            dump = {
                "reason": reason,
                "detail": detail,
                "seq": seq,
                "graph-id": graph_id,
                "wall": wall,
                "sim": sim,
                "spans": list(self._spans),
                "snapshots": list(self._snapshots),
                "histograms": (histograms.snapshot()
                               if histograms is not None else {}),
            }
            self.dumps.append(dump)
            self.frozen += 1
        return dump

    def recent_spans(self) -> List[dict]:
        with self._lock:
            return list(self._spans)

    def dump_list(self) -> List[dict]:
        with self._lock:
            return list(self.dumps)


#: Histogram families registered on every tracer (name, help, labels).
_FAMILIES = (
    ("dataplane_batch", "Sampled per-batch dataplane latency per LSI.",
     ("lsi",)),
    ("chain_hop", "Amortized per-hop fused-chain traversal latency.",
     ("lsi",)),
    ("reconcile_plan", "Reconciler plan computation latency.", ()),
    ("reconcile_step", "Reconciler step execution latency by step kind.",
     ("kind",)),
    ("control_tick", "Control-loop tick latency.", ()),
    ("rest_dispatch", "REST handler dispatch latency by route.",
     ("method", "route")),
)


class Tracer:
    """Sampling tracer + anomaly capture shared by both planes.

    The dataplane hot path touches only ``batch_counter`` and
    ``sample_every`` (inline in ``Datapath.process_batch_from``);
    everything else here runs on sampled batches or on the control
    plane, where a few microseconds are irrelevant.
    """

    def __init__(self, sample_every: int = 64,
                 journal: Optional[Callable[[], object]] = None,
                 clock: Optional[Callable[[], float]] = None,
                 flight_spans: int = 256,
                 flight_snapshots: int = 16,
                 max_dumps: int = 8,
                 slow_tick_threshold: float = 0.25,
                 storm_threshold: int = 10,
                 storm_window: float = 1.0,
                 anomaly_cooldown: float = 0.5):
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.sample_every = sample_every
        #: Inline sampler state, read/written directly by the datapath.
        self.batch_counter = 0
        self.sampled_batches = 0
        self._journal = journal
        self._clock = clock
        self.slow_tick_threshold = slow_tick_threshold
        self.storm_threshold = storm_threshold
        self.storm_window = storm_window
        self.anomaly_cooldown = anomaly_cooldown
        self.histograms = HistogramRegistry()
        for name, help_text, labels in _FAMILIES:
            self.histograms.register(name, help_text, labels)
        self.flight = FlightRecorder(span_capacity=flight_spans,
                                     snapshot_capacity=flight_snapshots,
                                     max_dumps=max_dumps)
        self._ids = itertools.count(1)
        self.anomalies: Dict[str, int] = {}
        self._last_anomaly: Dict[str, float] = {}
        self._invalidation_times: deque = deque(maxlen=max(1,
                                                           storm_threshold))

    # -- clocks ---------------------------------------------------------------

    def sim_now(self) -> float:
        """The sim-or-monotonic time, read dynamically.

        The journal is resolved through a callable on every read: the
        control loop may *replace* the reconciler's journal (sharding)
        or rebind its clock (sim mode) after this tracer was built.
        """
        if self._clock is not None:
            return self._clock()
        if self._journal is not None:
            journal = self._journal()
            if journal is not None:
                return journal.clock()
        return time.monotonic()

    # -- spans ----------------------------------------------------------------

    def start_span(self, name: str, parent: Optional[Span] = None,
                   seq: Optional[int] = None, **attrs) -> Span:
        span = Span()
        span.span_id = f"s{next(self._ids)}"
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            span.trace_id = f"t{next(self._ids)}"
            span.parent_id = None
        span.name = name
        span.attrs = attrs
        span.seq = seq
        span.start_wall = time.perf_counter()
        span.start_sim = self.sim_now()
        span.end_wall = None
        span.end_sim = None
        return span

    def end_span(self, span: Span, seq: Optional[int] = None,
                 **attrs) -> Span:
        if attrs:
            span.attrs.update(attrs)
        if seq is not None:
            span.seq = seq
        span.end_wall = time.perf_counter()
        span.end_sim = self.sim_now()
        self.flight.record(span)
        return span

    def _window_child(self, parent: Span, name: str, **attrs) -> Span:
        """A child span covering the parent's whole window (batch
        internals are not separately timed — a fused program is one
        straight-line run)."""
        span = Span()
        span.span_id = f"s{next(self._ids)}"
        span.trace_id = parent.trace_id
        span.parent_id = parent.span_id
        span.name = name
        span.attrs = attrs
        span.seq = None
        span.start_wall = parent.start_wall
        span.start_sim = parent.start_sim
        span.end_wall = None
        span.end_sim = None
        return span

    # -- dataplane batch tracing ----------------------------------------------

    def begin_batch(self, lsi: str) -> Span:
        """Start the root span of a sampled batch (sampler already won)."""
        self.sampled_batches += 1
        return self.start_span("batch", lsi=lsi)

    def finish_batch(self, root: Span, dp, state) -> None:
        """Close out a sampled batch: derive the span tree from the
        settled batch state and observe the latency histograms.

        Called by ``Datapath._finish_batch`` after the flush, with the
        ``_BatchState`` still holding the fused groups, the surviving
        pending accumulators and the egress queues.
        """
        end_wall = time.perf_counter()
        end_sim = self.sim_now()
        elapsed = end_wall - root.start_wall
        histograms = self.histograms
        histograms.observe("dataplane_batch", (root.attrs["lsi"],), elapsed)

        children: List[Span] = []
        dispatched = sum(group[4] for group in state.fused.values())
        pending_frames = sum(acc[1] for acc in state.pending.values())
        children.append(self._window_child(
            root, "dispatch" if state.dispatch_engaged else "lookup",
            matched=dispatched + pending_frames, dispatched=dispatched))
        for group in state.fused.values():
            program, frames = group[0], group[1]
            entry = getattr(program, "ingress_entry", None)
            chain = self._window_child(
                root, "chain",
                entry=getattr(entry, "entry_id", None),
                cookie=getattr(entry, "cookie", 0),
                frames=len(frames), dispatched=group[4])
            children.append(chain)
            hops = getattr(program, "hops", None) or ()
            per_hop = elapsed / len(hops) if hops else elapsed
            for index, hop in enumerate(hops):
                histograms.observe("chain_hop", (hop.dp.name,), per_hop)
                children.append(self._window_child(
                    chain, "hop", index=index, lsi=hop.dp.name,
                    out_port=hop.out_no))
        if state.queues:
            children.append(self._window_child(
                root, "egress", ports=sorted(state.queues),
                frames=sum(len(q) for q in state.queues.values())))

        root.end_wall = end_wall
        root.end_sim = end_sim
        self.flight.record(root)
        for child in children:
            child.end_wall = end_wall
            child.end_sim = end_sim
            self.flight.record(child)

    # -- anomaly triggers -----------------------------------------------------

    def anomaly(self, reason: str, detail: str = "",
                seq: Optional[int] = None,
                graph_id: str = "") -> Optional[dict]:
        """Count an anomaly and freeze a flight dump (cooldown-gated
        per reason so an anomaly storm doesn't churn the dump ring)."""
        self.anomalies[reason] = self.anomalies.get(reason, 0) + 1
        now = time.perf_counter()
        last = self._last_anomaly.get(reason)
        if last is not None and now - last < self.anomaly_cooldown:
            return None
        self._last_anomaly[reason] = now
        return self.flight.freeze(reason=reason, detail=detail, seq=seq,
                                  graph_id=graph_id, wall=now,
                                  sim=self.sim_now(),
                                  histograms=self.histograms)

    def freeze(self, reason: str, detail: str = "",
               seq: Optional[int] = None, graph_id: str = "") -> dict:
        """An explicit (non-anomaly, non-cooldown) flight dump."""
        return self.flight.freeze(reason=reason, detail=detail, seq=seq,
                                  graph_id=graph_id,
                                  wall=time.perf_counter(),
                                  sim=self.sim_now(),
                                  histograms=self.histograms)

    def note_invalidation(self, lsi: str, dropped: int = 1) -> None:
        """Called by the fusion engine when live programs are dropped;
        a burst of ``storm_threshold`` within ``storm_window`` seconds
        freezes an invalidation-storm dump."""
        now = time.perf_counter()
        times = self._invalidation_times
        times.append(now)
        if (len(times) == times.maxlen
                and now - times[0] <= self.storm_window):
            times.clear()
            self.anomaly("invalidation-storm",
                         detail=(f"{self.storm_threshold} fusion "
                                 f"invalidations within "
                                 f"{self.storm_window:g}s on {lsi}"))

    def on_journal_drop(self, graph_id: str, event) -> None:
        """EventJournal ``on_drop`` hook: the ring evicted an event."""
        self.anomaly("journal-drop",
                     detail=(f"event journal ring for {graph_id!r} "
                             f"evicted its oldest event"),
                     seq=getattr(event, "seq", None), graph_id=graph_id)

    def observe_tick(self, elapsed: float, graphs: int = 0) -> None:
        """Control-loop tick hook: histogram + periodic snapshot +
        slow-tick anomaly."""
        self.histograms.observe("control_tick", (), elapsed)
        self.flight.snapshot(self.histograms,
                             wall=time.perf_counter(), sim=self.sim_now())
        if elapsed > self.slow_tick_threshold:
            self.anomaly("slow-tick",
                         detail=(f"control tick took {elapsed:.4f}s over "
                                 f"the {self.slow_tick_threshold:g}s "
                                 f"threshold ({graphs} graphs)"))

    # -- documents ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "sample-every": self.sample_every,
            "sampled-batches": self.sampled_batches,
            "spans-recorded": self.flight.recorded,
            "flight-freezes": self.flight.frozen,
            "anomalies": dict(self.anomalies),
        }

    def traces_document(self) -> dict:
        document = self.stats()
        document["spans"] = self.flight.recent_spans()
        return document

    def flight_document(self) -> dict:
        return {
            "flight-freezes": self.flight.frozen,
            "anomalies": dict(self.anomalies),
            "dumps": self.flight.dump_list(),
        }
