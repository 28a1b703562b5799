"""The continuous control loop: tick, sample, scale — forever.

PR 4 left the reconciler *on-demand*: every deploy/update/REST trigger
ran it to convergence, but nothing watched the node in between.  The
:class:`ControlLoop` closes that gap.  Each iteration:

1. **reconcile tick** per known graph — health probes, plan, execute
   (one tick, not tick-to-convergence: convergence happens *across*
   iterations, which is what makes the loop's cost per iteration
   bounded and its behavior inspectable mid-flight);
2. **telemetry sample** into the metrics registry;
3. **autoscaler evaluation** (optional) — which may edit desired
   state for the next iteration's ticks to converge on.

Two drivers of the same ``step``:

* :meth:`run_sim` registers the loop as a discrete-event-simulator
  process and rebinds the journal clock to the virtual clock — tests
  replay overload -> scale-out -> drain -> scale-in scenarios with
  bit-for-bit deterministic timestamps, MTTR and time-to-scale;
* :meth:`start` runs the identical ``step`` on a daemon thread against
  the monotonic wall clock for `repro serve`-style deployments.

Sharding.  ``shards=N`` partitions the fleet by
:func:`~repro.core.reconciler.shard_of_graph` (stable CRC32 of the
graph_id).  Each iteration ticks the N partitions concurrently on a
worker pool in thread mode — per-graph locks make that safe, and the
:class:`~repro.core.reconciler.ShardedEventJournal` installed at
construction keeps shard workers off each other's journal mutex.  In
sim mode (and in direct ``step()`` calls without :meth:`start`) the
same partitions are ticked deterministically round-robin — shard 0's
first graph, shard 1's first, ..., shard 0's second — so sharded sim
traces stay bit-for-bit reproducible while still exercising the
sharded journal paths.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.core.orchestrator import LocalOrchestrator
from repro.core.reconciler import ShardedEventJournal, shard_of_graph
from repro.sim.engine import Process, Simulator
from repro.telemetry.autoscaler import Autoscaler
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["ControlLoop"]


class ControlLoop:
    """Drives reconcile ticks + telemetry + scaling on a fixed period."""

    def __init__(self, orchestrator: LocalOrchestrator,
                 registry: MetricsRegistry,
                 autoscaler: Optional[Autoscaler] = None,
                 interval: float = 1.0,
                 shards: int = 1) -> None:
        if not (0 < interval and math.isfinite(interval)):
            raise ValueError(
                f"interval must be positive and finite, got {interval}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.orchestrator = orchestrator
        self.registry = registry
        self.autoscaler = autoscaler
        self.interval = interval
        self.shards = shards
        if shards > 1:
            reconciler = orchestrator.reconciler
            journal = reconciler.journal
            if not isinstance(journal, ShardedEventJournal):
                sharded = ShardedEventJournal(shards=shards,
                                              max_events=journal.max_events,
                                              clock=journal.clock)
                sharded.adopt(journal)
                # A tracer's journal-drop trigger hooked onto the plain
                # journal must survive the swap.
                sharded.on_drop = journal.on_drop
                reconciler.journal = sharded
        # Ad-hoc samples (REST scrapes) between two loop iterations
        # must not shorten the rate windows scaling decisions read.
        registry.min_rate_window = interval / 2.0
        self.iterations = 0
        self.steps_executed = 0
        self.scale_events = 0
        self.tick_errors = 0
        self.last_error: str = ""
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- one iteration -----------------------------------------------------------
    def _partition(self, graph_ids: list[str]) -> list[list[str]]:
        parts: list[list[str]] = [[] for _ in range(self.shards)]
        for graph_id in graph_ids:
            parts[shard_of_graph(graph_id, self.shards)].append(graph_id)
        return parts

    def _tick_one(self, graph_id: str) -> int:
        """Tick one graph, absorbing its failure into loop stats.

        One graph's broken driver must not starve every other graph of
        its reconcile tick — the failed graph keeps its checkpointed
        state and is retried next iteration.
        """
        try:
            return self.orchestrator.reconciler.tick(graph_id).done_count
        except Exception as exc:
            self.tick_errors += 1
            self.last_error = f"{graph_id}: {exc}"
            return 0

    def step(self, now: Optional[float] = None) -> dict:
        """Tick every graph once, sample, evaluate policies.

        Returns a small stats dict (handy for tests and the journal).
        A graph whose tick plan fails keeps its checkpointed state and
        is retried next iteration — exactly the reconciler's contract.
        """
        t = self.registry.now() if now is None else now
        self.iterations += 1
        reconciler = self.orchestrator.reconciler
        tracer = reconciler.tracer
        tick_started = time.perf_counter() if tracer is not None else 0.0
        executed = 0
        graph_ids = sorted(set(reconciler.desired) | set(reconciler.observed))
        if self.shards > 1:
            parts = self._partition(graph_ids)
            if self._pool is not None:
                def tick_shard(part: list[str]) -> int:
                    return sum(self._tick_one(graph_id) for graph_id in part)
                executed = sum(self._pool.map(tick_shard, parts))
            else:
                # Sim mode / direct step(): same partitions, ticked
                # round-robin so the order is deterministic.
                longest = max((len(part) for part in parts), default=0)
                for i in range(longest):
                    for part in parts:
                        if i < len(part):
                            executed += self._tick_one(part[i])
        else:
            for graph_id in graph_ids:
                executed += self._tick_one(graph_id)
        self.registry.sample(t)
        decisions = (self.autoscaler.evaluate(t)
                     if self.autoscaler is not None else [])
        self.steps_executed += executed
        self.scale_events += len(decisions)
        if tracer is not None:
            tracer.observe_tick(time.perf_counter() - tick_started,
                                graphs=len(graph_ids))
        return {"t": t, "graphs": len(graph_ids),
                "steps-executed": executed,
                "scale-decisions": len(decisions)}

    # -- sim driver --------------------------------------------------------------
    def run_sim(self, sim: Simulator) -> Process:
        """Attach the loop to a simulator as a process (virtual clock).

        The reconciler journal's clock is rebound to ``sim.now`` so
        every event timestamp, rate window, MTTR and time-to-scale is
        in virtual seconds — run ``sim.run(until=...)`` to advance.
        Flow-state aging (:mod:`repro.switch.state`) moves onto the
        same axis: every LSI's state clock is rebound each tick, so
        graphs deployed mid-simulation age their flow entries in
        virtual time too.  The process never terminates on its own;
        the ``until`` bound (or :meth:`Simulator.stop`) ends it.
        """
        clock = lambda: sim.now  # noqa: E731 - one shared rebindable clock
        self.orchestrator.reconciler.journal.clock = clock
        steering = getattr(self.orchestrator, "steering", None)

        def ticker():
            while True:
                try:
                    if steering is not None:
                        steering.set_state_clock(clock)
                    self.step(sim.now)
                except Exception as exc:  # keep the loop alive; record
                    self.last_error = str(exc)
                yield sim.timeout(self.interval)

        return sim.process(ticker(), name="control-loop")

    # -- thread driver -----------------------------------------------------------
    def start(self) -> "ControlLoop":
        """Run the loop on a daemon thread (monotonic wall clock).

        With ``shards > 1`` a worker pool is opened and every iteration
        fans the shard partitions out across it — per-graph locks make
        concurrent ticks safe, and the sharded journal keeps the
        workers from serializing on one ring mutex.
        """
        if self._thread is not None:
            raise RuntimeError("control loop already running")
        if self.shards > 1 and self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.shards,
                thread_name_prefix="control-loop-shard")
        self._stop = threading.Event()

        def run() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.step(time.monotonic())
                except Exception as exc:
                    self.last_error = str(exc)

        self._thread = threading.Thread(target=run, name="control-loop",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
            self._stop = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
