"""The metrics registry: counters in, time series and rates out.

Sampling model.  The dataplane maintains *cumulative* counters (flow
and port packet/byte totals, flushed once per batch — they cost the
hot path nothing extra).  :meth:`MetricsRegistry.sample` reads them at
a point in time and appends ``(t, total)`` observations to per-NF ring
buffers; rates are derived between consecutive samples
(``Δpackets/Δt``), so one registry serves both "what is the load right
now" (the autoscaler's question) and "what did it look like over the
last N samples" (the ``repro top`` view).  Ring capacity bounds memory
no matter how long the control loop runs.

Per-NF load signal.  An NF's load is the traffic the switch delivered
*to* it — the ``tx`` counters of its LSI ports (ingress into the NF) —
summed over the NF's ports.  Replicas are separate NFs here (`nf`,
``nf@1``, ...); :meth:`group_pps` aggregates a replica group back into
one per-base-NF figure for scaling decisions.

Availability metrics are *journal-derived*, not sampled: the
reconciler's :class:`~repro.core.reconciler.EventJournal` stamps every
transition with its clock, so MTTR (mean seconds from
``health-failed`` to the matching ``healed``), convergence time
(``desired-set`` to ``converged``) and time-to-scale (``autoscale`` to
``converged``) are exact replays of the event log — deterministic
under the sim clock, wall-monotonic in production.
"""

from __future__ import annotations

import threading
from array import array
from typing import Optional

from repro.core.reconciler import Reconciler
from repro.core.steering import TrafficSteeringManager
from repro.nffg.replicas import replica_base

__all__ = ["MetricsRegistry", "NfSeries", "SeriesRing"]


class SeriesRing:
    """A bounded time series: ``(t, value)`` pairs, oldest evicted.

    Points live interleaved in one ``array('d')`` — 16 bytes each,
    against a tuple and two boxed floats — because a node keeps two
    rings per NF per graph for as long as the graph lives.
    """

    __slots__ = ("_data", "_limit")

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._data = array("d")
        self._limit = 2 * capacity

    def append(self, t: float, value: float) -> None:
        data = self._data
        if len(data) == self._limit:
            del data[:2]
        data.append(t)
        data.append(value)

    def items(self) -> list[tuple[float, float]]:
        data = self._data
        return list(zip(data[::2], data[1::2]))

    @property
    def last(self) -> Optional[tuple[float, float]]:
        data = self._data
        return (data[-2], data[-1]) if data else None

    def __len__(self) -> int:
        return len(self._data) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeriesRing {len(self)}/{self._limit // 2}>"


class NfSeries:
    """Sampled state of one NF (one replica): totals and derived rates."""

    __slots__ = ("rx_packets", "rx_bytes", "pps", "bps",
                 "_last_t", "_last_packets", "_last_bytes")

    def __init__(self, capacity: int) -> None:
        self.rx_packets = 0
        self.rx_bytes = 0
        self.pps = SeriesRing(capacity)
        self.bps = SeriesRing(capacity)
        self._last_t: Optional[float] = None
        self._last_packets = 0
        self._last_bytes = 0

    def observe(self, t: float, packets: int, nbytes: int,
                min_window: float = 0.0) -> None:
        self.rx_packets = packets
        self.rx_bytes = nbytes
        if packets < self._last_packets or nbytes < self._last_bytes:
            # Counter reset: a heal-recreate gave the NF fresh LSI
            # ports.  Re-base without emitting a rate point — the
            # Prometheus counter-reset convention; a negative "rate"
            # here would read as a drain signal to the autoscaler.
            self._last_t = t
            self._last_packets = packets
            self._last_bytes = nbytes
            return
        if self._last_t is not None and t > self._last_t:
            dt = t - self._last_t
            if dt < min_window:
                # Too-short window (an ad-hoc REST scrape between two
                # control-loop samples): keep the totals fresh but do
                # not derive a rate from it, and do not re-base — the
                # next on-schedule sample still spans a full window.
                return
            self.pps.append(t, (packets - self._last_packets) / dt)
            self.bps.append(t, (nbytes - self._last_bytes) / dt)
        self._last_t = t
        self._last_packets = packets
        self._last_bytes = nbytes

    @property
    def last_pps(self) -> float:
        point = self.pps.last
        return point[1] if point is not None else 0.0

    @property
    def last_bps(self) -> float:
        point = self.bps.last
        return point[1] if point is not None else 0.0


class MetricsRegistry:
    """Samples a node's steering + reconciler state into time series."""

    def __init__(self, steering: TrafficSteeringManager,
                 reconciler: Reconciler, capacity: int = 512) -> None:
        self.steering = steering
        self.reconciler = reconciler
        self.capacity = capacity
        #: graph_id -> nf_id -> NfSeries (expanded/replica nf ids)
        self._nfs: dict[str, dict[str, NfSeries]] = {}
        self.samples_taken = 0
        #: shortest dt a rate point may be derived over.  0 (default)
        #: keeps every sample; a ControlLoop raises it to half its
        #: interval so ad-hoc scrapes (REST GET /metrics between loop
        #: iterations) refresh totals without shortening the rate
        #: windows the autoscaler decides on.
        self.min_rate_window = 0.0
        # Serializes sampling passes: REST scrapes run on
        # ThreadingHTTPServer worker threads alongside a ControlLoop
        # thread, and NfSeries.observe is a read-modify-write.  The
        # steering dicts themselves are snapshotted (C-level list())
        # per pass; deploys remain single-writer as everywhere else.
        self._sample_lock = threading.Lock()

    # -- clock ------------------------------------------------------------------
    def now(self) -> float:
        """The registry's time base is the journal's clock, read
        dynamically — a sim-mode control loop that rebinds the journal
        clock automatically rebases sampling too, keeping rate windows
        and event timestamps on one axis."""
        return self.reconciler.journal.clock()

    # -- sampling ---------------------------------------------------------------
    def sample(self, now: Optional[float] = None) -> float:
        """One sampling pass over every deployed graph; returns ``t``."""
        t = self.now() if now is None else now
        with self._sample_lock:
            return self._sample_locked(t)

    def _sample_locked(self, t: float) -> float:
        self.samples_taken += 1
        for graph_id, network in list(self.steering.graphs.items()):
            per_nf: dict[str, list[int]] = {}
            for (nf_id, _logical), port in list(network.nf_ports.items()):
                acc = per_nf.setdefault(nf_id, [0, 0])
                # tx on the LSI port is ingress *into* the NF: the
                # offered load the autoscaler budgets per replica.
                acc[0] += port.tx_packets
                acc[1] += port.tx_bytes
            series = self._nfs.setdefault(graph_id, {})
            for nf_id, (packets, nbytes) in per_nf.items():
                entry = series.get(nf_id)
                if entry is None:
                    entry = series[nf_id] = NfSeries(self.capacity)
                entry.observe(t, packets, nbytes,
                              min_window=self.min_rate_window)
            # NFs whose ports vanished (scale-in, recreate) stop
            # observing; their history stays until the graph goes.
            record = self.reconciler.observed.get(graph_id)
            live = set(per_nf)
            if record is not None:
                live |= set(record.instances)
            for nf_id in [nf_id for nf_id in series if nf_id not in live]:
                del series[nf_id]
        for graph_id in [g for g in self._nfs
                         if g not in self.steering.graphs]:
            del self._nfs[graph_id]
        return t

    # -- rate queries ------------------------------------------------------------
    def graphs(self) -> list[str]:
        return sorted(self._nfs)

    def nf_series(self, graph_id: str) -> dict[str, NfSeries]:
        return dict(self._nfs.get(graph_id, {}))

    def nf_rates(self, graph_id: str) -> dict[str, dict]:
        """Latest per-NF rates: nf_id -> {pps, bytes-per-second, ...}."""
        return {nf_id: {"pps": series.last_pps,
                        "bytes-per-second": series.last_bps,
                        "rx-packets-total": series.rx_packets,
                        "rx-bytes-total": series.rx_bytes}
                for nf_id, series in self._nfs.get(graph_id, {}).items()}

    def group_pps(self, graph_id: str, base_nf_id: str) -> Optional[float]:
        """Aggregate pps of a replica group (None before two samples)."""
        series = self._nfs.get(graph_id)
        if series is None:
            return None
        members = [entry for nf_id, entry in series.items()
                   if replica_base(nf_id) == base_nf_id]
        if not members or all(len(entry.pps) == 0 for entry in members):
            return None
        return sum(entry.last_pps for entry in members)

    def replica_counts(self, graph_id: str) -> dict[str, int]:
        """base nf_id -> live replica count (from the observed record)."""
        record = self.reconciler.observed.get(graph_id)
        if record is None:
            return {}
        counts: dict[str, int] = {}
        for nf_id in record.instances:
            base = replica_base(nf_id)
            counts[base] = counts.get(base, 0) + 1
        return counts

    # -- journal-derived availability --------------------------------------------
    def availability(self, graph_id: str) -> dict:
        """Replay the graph's journal into availability figures.

        ``mttr-seconds`` is None until at least one failure has been
        repaired; with the sim clock driving the journal the figure is
        bit-for-bit deterministic.
        """
        events = self.reconciler.journal.events(graph_id)
        pending_fail: dict[str, float] = {}
        repairs: list[float] = []
        failures = heals = 0
        convergence_started: Optional[float] = None
        scale_started: Optional[float] = None
        convergences: list[float] = []
        last_scale: Optional[float] = None
        for event in events:
            kind = event.kind
            if kind == "health-failed":
                failures += 1
                pending_fail.setdefault(event.nf_id, event.time)
            elif kind == "healed":
                heals += 1
                started = pending_fail.pop(event.nf_id, None)
                if started is not None:
                    repairs.append(event.time - started)
            elif kind == "desired-set":
                convergence_started = event.time
            elif kind == "autoscale":
                scale_started = event.time
            elif kind == "converged":
                if convergence_started is not None:
                    convergences.append(event.time - convergence_started)
                    convergence_started = None
                if scale_started is not None:
                    last_scale = event.time - scale_started
                    scale_started = None
        mttr = sum(repairs) / len(repairs) if repairs else None
        return {
            "failures": failures,
            "heals": heals,
            "repairs": len(repairs),
            "mttr-seconds": mttr,
            "mean-convergence-seconds": (sum(convergences)
                                         / len(convergences)
                                         if convergences else None),
            "last-convergence-seconds": (convergences[-1]
                                         if convergences else None),
            "time-to-scale-seconds": last_scale,
            "journal-events": len(events),
            "journal-dropped":
                self.reconciler.journal.dropped_count(graph_id),
        }

    # -- document view -----------------------------------------------------------
    def graph_metrics(self, graph_id: str) -> dict:
        """JSON-ready per-graph metrics document."""
        document = {
            "graph-id": graph_id,
            "nfs": self.nf_rates(graph_id),
            "replicas": self.replica_counts(graph_id),
            "availability": self.availability(graph_id),
            "samples": self.samples_taken,
        }
        # Fused-chain and flow-state counters of the graph's own LSI
        # (a graph being torn down may already have left the steering
        # table).
        network = self.steering.graphs.get(graph_id)
        if network is not None:
            fusion = network.lsi.datapath.fusion.stats()
            # Whole chains usually fuse at the node-ingress LSI, so the
            # graph LSI's own engine never sees a frame; recover the
            # graph's share of LSI-0's counters by its flow cookie and
            # fold it in, keeping the ingress share visible separately.
            share = self.steering.base.datapath.fusion.stats_for_cookie(
                network.cookie)
            for key, value in share.items():
                fusion[key] = fusion.get(key, 0) + value
            fusion["at-node-ingress"] = share
            document["fusion"] = fusion
            document["flow-state"] = \
                network.lsi.datapath.flow_state.stats()
        return document

    def to_dict(self) -> dict:
        """JSON-ready node-wide metrics document."""
        graph_ids = sorted(set(self._nfs)
                           | set(self.reconciler.observed))
        return {
            "samples": self.samples_taken,
            "flow-counts": self.steering.flow_counts(),
            "fusion": self.steering.fusion_stats(),
            "flow-state": self.steering.flow_state_stats(),
            "graphs": {graph_id: self.graph_metrics(graph_id)
                       for graph_id in graph_ids},
        }
