"""Desired-state reconciliation: the engine under the orchestrator.

The paper's un-orchestrator keeps NF-FGs *running* — create, update,
heal — which an imperative verb pipeline cannot do: a driver failure
halfway through an update strands allocations with no path back.  This
module replaces the verbs with a control loop:

* **Desired vs. observed.**  ``Reconciler.desired`` holds what each
  graph *should* look like (set by deploy/update, cleared by
  undeploy); ``Reconciler.observed`` holds per-graph
  :class:`DeployedGraph` records tracking what is actually realized —
  which instances exist (and in which lifecycle state), which
  placements were decided, and (via the steering layer's per-rule
  registry) which big-switch rules are installed.

* **Plans.**  Every tick compiles the :func:`~repro.nffg.diff.diff_nffg`
  edit script between the observed graph and the desired graph into an
  explicit, inspectable list of :class:`PlanStep` objects — delete-rule
  / stop / destroy / place / create / configure / reconfigure /
  install-rule / start / restart, plus the graph-network bookends —
  and executes them in order.

* **Per-step checkpointing.**  Each completed step immediately updates
  the observed record, so a mid-plan failure aborts the tick with the
  observed state exactly describing what was applied.  The next tick
  recompiles a *fresh* plan from that state: updates are retryable and
  nothing is ever torn down wholesale to get back to consistency.

* **Health-probed healing.**  The tick loop probes every RUNNING
  instance through its driver's ``health`` verb; an unhealthy instance
  transitions to FAILED and is healed — restarted in place first, and
  recreated (destroy + create + configure + reinstall *only its own
  rules* + start) if the restart does not stick.  Untouched NFs keep
  their flow entries and counters throughout.

* **Journal.**  Every transition lands in an append-only
  :class:`EventJournal`, exposed over REST
  (``GET /graphs/{id}/events``) and the CLI (``repro graph events``) —
  the repair/convergence record availability models need.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.compute.instances import InstanceSpec, InstanceState, NfInstance
from repro.compute.manager import ComputeManager
from repro.core.placement import PlacementDecision, PlacementPolicy
from repro.core.steering import TrafficSteeringManager
from repro.nffg.diff import diff_nffg
from repro.nffg.model import FlowRule, Nffg, NfInstanceSpec
from repro.nffg.replicas import expand_replicas, is_lb_rule_id, replica_base
from repro.resources.accounting import ResourceAccountant
from repro.resources.images import ImageRegistry

__all__ = ["DeployedGraph", "EventJournal", "GraphEvent", "GraphLockRegistry",
           "Plan", "PlanStep", "ReconcileError", "ReconcileResult",
           "Reconciler", "ShardedEventJournal", "shard_of_graph"]


class ReconcileError(Exception):
    """The engine could not make progress towards the desired state."""


def shard_of_graph(graph_id: str, shards: int) -> int:
    """Stable graph_id -> shard mapping shared by the control loop and
    the sharded journal.

    CRC32, not :func:`hash`: the built-in string hash is randomized per
    process (``PYTHONHASHSEED``), and a shard assignment that moved
    between runs would make sharded sim traces non-reproducible and
    per-shard journal exports impossible to correlate across restarts.
    """
    if shards <= 1:
        return 0
    return zlib.crc32(graph_id.encode()) % shards


class GraphLockRegistry:
    """Per-graph reentrant locks, created on demand.

    The control plane's concurrency unit is the graph: REST handler
    threads (deploy/update/undeploy/reconcile), the control loop's tick
    workers and the autoscaler all serialize *per graph_id* — two
    callers touching different graphs never contend, two touching the
    same graph never interleave.  Locks are reentrant because the call
    graph nests (``deploy`` -> ``reconcile`` -> ``tick`` all take the
    same graph's lock), and they are never discarded — not even where
    the reconciler retires a removed graph's journal and plan: the
    thread doing that removal is *holding* the graph's lock, and
    deleting one under a holder or waiter would hand two threads "the"
    lock for one graph.  One lock object per distinct graph_id ever
    seen is therefore still retained; bounding that is the robustness
    item's job (ROADMAP item 5).
    """

    def __init__(self) -> None:
        self._locks: dict[str, threading.RLock] = {}
        self._registry_lock = threading.Lock()

    def get(self, graph_id: str) -> threading.RLock:
        lock = self._locks.get(graph_id)
        if lock is None:
            with self._registry_lock:
                lock = self._locks.setdefault(graph_id, threading.RLock())
        return lock

    def __len__(self) -> int:
        return len(self._locks)


# -- journal ---------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GraphEvent:
    """One append-only journal entry.

    ``time`` is the journal clock's reading at append — wall-monotonic
    by default, the virtual sim clock under a
    :class:`~repro.telemetry.loop.ControlLoop` in sim mode — and is
    what the telemetry layer derives MTTR and convergence times from.
    """

    seq: int
    kind: str
    graph_id: str
    nf_id: str = ""
    rule_id: str = ""
    detail: str = ""
    time: float = 0.0

    def to_dict(self) -> dict:
        row = {"seq": self.seq, "kind": self.kind,
               "graph-id": self.graph_id, "time": self.time}
        if self.nf_id:
            row["nf-id"] = self.nf_id
        if self.rule_id:
            row["rule-id"] = self.rule_id
        if self.detail:
            row["detail"] = self.detail
        return row


class EventJournal:
    """Append-only, per-graph *ring-buffered* event log.

    Each graph's log is a ring of at most ``max_events`` entries so a
    continuous control loop driving ticks forever cannot grow memory
    without bound.  Evictions are counted per graph
    (:meth:`dropped_count`) and reported by the REST/CLI event queries,
    so a truncated history is never mistaken for a complete one.

    The journal outlives the graphs it describes (post-mortems after an
    undeploy are the point) — for a bounded while.  :meth:`retire` moves
    a removed graph's log to the retired set, where every read still
    finds it and an append under the same id resumes it; once the
    retired logs together hold more than ``max_events`` events the
    oldest-retired go, whole.  The most recently removed graphs are
    therefore always readable, and create/delete churn over any number
    of graph ids retains a fixed amount.

    ``clock`` stamps every event (:attr:`GraphEvent.time`); it defaults
    to ``time.monotonic`` and is rebound to the virtual clock by the
    sim-mode control loop, which is what makes journal-derived
    availability metrics (MTTR) deterministic under test.

    Appends are thread-safe: REST handler threads and control-loop shard
    workers journal concurrently, and the ring-full check
    (``len(log) == max_events``) racing the append used to undercount
    drops.  One mutex per journal covers the
    check-then-append and the dropped-counter increment as a unit; the
    read side snapshots under the same mutex so an export never sees a
    half-applied eviction.  ``seq`` may be a shared counter so several
    shard journals allocate from one sequence.
    """

    def __init__(self, max_events: int = 1000,
                 clock: Optional[Callable[[], float]] = None,
                 seq: "Optional[itertools.count]" = None) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.clock: Callable[[], float] = (clock if clock is not None
                                           else time.monotonic)
        self._events: dict[str, deque[GraphEvent]] = {}
        #: logs of removed graphs, oldest-retired first (see class doc)
        self._retired: dict[str, deque[GraphEvent]] = {}
        self._retired_events = 0
        self._dropped: dict[str, int] = {}
        self._seq = seq if seq is not None else itertools.count(1)
        self._lock = threading.Lock()
        #: Optional ``callback(graph_id, event)`` fired *after* an
        #: append that evicted the ring's oldest event (the flight
        #: recorder's journal-drop anomaly trigger).  Invoked outside
        #: the journal lock — the callback may itself read the journal.
        self.on_drop: Optional[Callable[[str, GraphEvent], None]] = None

    def append(self, graph_id: str, kind: str, nf_id: str = "",
               rule_id: str = "", detail: str = "") -> GraphEvent:
        evicted = False
        with self._lock:
            event = GraphEvent(seq=next(self._seq), kind=kind,
                               graph_id=graph_id, nf_id=nf_id,
                               rule_id=rule_id, detail=detail,
                               time=self.clock())
            log = self._open(graph_id)
            if len(log) == self.max_events:
                self._dropped[graph_id] = self._dropped.get(graph_id, 0) + 1
                evicted = True
            log.append(event)
        if evicted:
            on_drop = self.on_drop
            if on_drop is not None:
                on_drop(graph_id, event)
        return event

    def _open(self, graph_id: str) -> "deque[GraphEvent]":
        """The graph's live log (lock held): its own, or a retired one
        resumed because the id was re-created, or a new ring."""
        log = self._events.get(graph_id)
        if log is None:
            log = self._retired.pop(graph_id, None)
            if log is None:
                log = deque(maxlen=self.max_events)
            else:
                self._retired_events -= len(log)
            self._events[graph_id] = log
        return log

    def retire(self, graph_id: str) -> None:
        """Mark the graph's log as that of a removed graph (class doc).

        Evicting a retired log is not an ``on_drop`` anomaly — nothing
        live lost history — and takes the graph's drop counter along.
        """
        with self._lock:
            log = self._events.pop(graph_id, None)
            if log is None:
                return
            self._retired[graph_id] = log
            self._retired_events += len(log)
            while self._retired_events > self.max_events:
                oldest = next(iter(self._retired))
                self._retired_events -= len(self._retired.pop(oldest))
                self._dropped.pop(oldest, None)

    def _log(self, graph_id: str) -> "deque[GraphEvent] | tuple":
        return self._events.get(graph_id) \
            or self._retired.get(graph_id, ())

    def events(self, graph_id: str) -> list[GraphEvent]:
        with self._lock:
            return list(self._log(graph_id))

    def dropped_count(self, graph_id: str) -> int:
        """Events evicted from the graph's ring since it was created."""
        with self._lock:
            return self._dropped.get(graph_id, 0)

    def last_kind(self, graph_id: str) -> str:
        with self._lock:
            log = self._log(graph_id)
            return log[-1].kind if log else ""

    def graphs(self) -> list[str]:
        with self._lock:
            return sorted(self._events.keys() | self._retired.keys())

    def forget(self, graph_id: str) -> None:
        with self._lock:
            self._events.pop(graph_id, None)
            self._retired_events -= len(self._retired.pop(graph_id, ()))
            self._dropped.pop(graph_id, None)


class ShardedEventJournal:
    """N per-shard :class:`EventJournal` rings behind one interface.

    Scaling the reconcile loop out puts every shard worker on the
    journal at once; even a thread-safe single ring then serializes all
    workers on one mutex.  This variant routes each graph to the shard
    :func:`shard_of_graph` names — the *same* mapping the sharded
    control loop uses for tick workers, so within a shard the journal
    is effectively single-writer again and cross-shard appends never
    contend.  Sequence numbers come from one shared counter, so merged
    exports still interleave in global append order.

    The public surface mirrors :class:`EventJournal` exactly (append /
    events / dropped_count / last_kind / graphs / forget / retire /
    ``max_events`` / ``clock``) — the reconciler, REST export, CLI and
    telemetry layers cannot tell the difference.  Reads route to the
    owning shard; :meth:`graphs` and :meth:`merged_events` merge across
    shards for fleet-wide export.
    """

    def __init__(self, shards: int = 2, max_events: int = 1000,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.max_events = max_events
        self._clock: Callable[[], float] = (clock if clock is not None
                                            else time.monotonic)
        seq = itertools.count(1)
        self.shards: list[EventJournal] = [
            EventJournal(max_events=max_events, clock=self._clock, seq=seq)
            for _ in range(shards)]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    @clock.setter
    def clock(self, clock: Callable[[], float]) -> None:
        # Rebinding (sim mode) must reach every shard ring, or merged
        # exports would mix virtual and wall timestamps.
        self._clock = clock
        for shard in self.shards:
            shard.clock = clock

    @property
    def on_drop(self) -> Optional[Callable[[str, GraphEvent], None]]:
        return self.shards[0].on_drop

    @on_drop.setter
    def on_drop(self,
                callback: Optional[Callable[[str, GraphEvent], None]]) \
            -> None:
        # Like the clock: a drop on any shard ring is a drop.
        for shard in self.shards:
            shard.on_drop = callback

    def shard_for(self, graph_id: str) -> EventJournal:
        return self.shards[shard_of_graph(graph_id, len(self.shards))]

    def adopt(self, journal: EventJournal) -> None:
        """Migrate an existing single-ring journal's history in.

        Used when a sharded control loop takes over a node that already
        journaled deploys through the default ring — post-mortems must
        not lose the pre-sharding prefix.  Events keep their original
        seq/time stamps; drop counters carry over; logs of removed
        graphs arrive retired, in the order they were retired.
        """
        with journal._lock:
            retired = {graph_id: list(log)
                       for graph_id, log in journal._retired.items()}
            entries = {graph_id: list(log)
                       for graph_id, log in journal._events.items()}
            dropped = dict(journal._dropped)
        for graph_id, events in (retired | entries).items():
            shard = self.shard_for(graph_id)
            with shard._lock:
                shard._open(graph_id).extend(events)
                if dropped.get(graph_id):
                    shard._dropped[graph_id] = \
                        shard._dropped.get(graph_id, 0) + dropped[graph_id]
            if graph_id in retired:
                shard.retire(graph_id)

    # -- EventJournal surface (routed) --------------------------------------------
    def append(self, graph_id: str, kind: str, nf_id: str = "",
               rule_id: str = "", detail: str = "") -> GraphEvent:
        return self.shard_for(graph_id).append(graph_id, kind, nf_id=nf_id,
                                               rule_id=rule_id, detail=detail)

    def events(self, graph_id: str) -> list[GraphEvent]:
        return self.shard_for(graph_id).events(graph_id)

    def dropped_count(self, graph_id: str) -> int:
        return self.shard_for(graph_id).dropped_count(graph_id)

    def last_kind(self, graph_id: str) -> str:
        return self.shard_for(graph_id).last_kind(graph_id)

    def graphs(self) -> list[str]:
        merged: set[str] = set()
        for shard in self.shards:
            merged.update(shard.graphs())
        return sorted(merged)

    def forget(self, graph_id: str) -> None:
        self.shard_for(graph_id).forget(graph_id)

    def retire(self, graph_id: str) -> None:
        self.shard_for(graph_id).retire(graph_id)

    # -- merged export -------------------------------------------------------------
    def merged_events(self) -> list[GraphEvent]:
        """Every shard's events in one list, global append (seq) order."""
        merged: list[GraphEvent] = []
        for shard in self.shards:
            for graph_id in shard.graphs():
                merged.extend(shard.events(graph_id))
        merged.sort(key=lambda event: event.seq)
        return merged


# -- plans -----------------------------------------------------------------------

#: Step kinds in canonical execution order within a plan.
STEP_KINDS = ("create-network", "delete-rule", "stop", "destroy-network",
              "destroy", "place", "create", "configure", "reconfigure",
              "restart", "install-rule", "start")


@dataclass
class PlanStep:
    """One reconciliation action; ``status`` is its checkpoint."""

    kind: str
    nf_id: str = ""
    rule_id: str = ""
    detail: str = ""
    status: str = "pending"   # pending -> done | failed
    error: str = ""

    @property
    def target(self) -> str:
        return self.nf_id or self.rule_id

    def describe(self) -> str:
        text = self.kind
        if self.target:
            text += f" {self.target}"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_dict(self) -> dict:
        row = {"kind": self.kind, "status": self.status}
        if self.nf_id:
            row["nf-id"] = self.nf_id
        if self.rule_id:
            row["rule-id"] = self.rule_id
        if self.detail:
            row["detail"] = self.detail
        if self.error:
            row["error"] = self.error
        return row


@dataclass
class Plan:
    """The compiled edit script of one tick."""

    graph_id: str
    steps: list[PlanStep] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return not self.steps

    @property
    def done_count(self) -> int:
        return sum(1 for step in self.steps if step.status == "done")

    @property
    def failed_step(self) -> Optional[PlanStep]:
        for step in self.steps:
            if step.status == "failed":
                return step
        return None

    def summary(self) -> str:
        if not self.steps:
            return "converged (empty plan)"
        kinds: dict[str, int] = {}
        for step in self.steps:
            kinds[step.kind] = kinds.get(step.kind, 0) + 1
        return ", ".join(f"{count}x {kind}" for kind, count in
                         sorted(kinds.items(),
                                key=lambda item: STEP_KINDS.index(item[0])))


@dataclass
class ReconcileResult:
    """Outcome of one :meth:`Reconciler.reconcile` convergence run."""

    graph_id: str
    converged: bool
    ticks: int
    steps_executed: int

    def to_dict(self) -> dict:
        return {"graph-id": self.graph_id, "converged": self.converged,
                "ticks": self.ticks, "steps-executed": self.steps_executed}


# -- observed records -------------------------------------------------------------

@dataclass
class DeployedGraph:
    """Observed state of one live NF-FG (the reconciler's record)."""

    graph: Nffg
    placements: dict[str, PlacementDecision] = field(default_factory=dict)
    instances: dict[str, NfInstance] = field(default_factory=dict)
    #: desired spec each live instance was realized from (configure /
    #: reconfigure checkpoints update it) — the observed-graph NF set
    realized_nfs: dict[str, NfInstanceSpec] = field(default_factory=dict)
    rules_installed: int = 0
    modeled_deploy_seconds: float = 0.0
    wall_deploy_seconds: float = 0.0

    @property
    def graph_id(self) -> str:
        return self.graph.graph_id

    def technologies(self) -> dict[str, str]:
        return {nf_id: decision.implementation.technology.value
                for nf_id, decision in self.placements.items()}


def _rule_touches(rule: FlowRule, nf_ids: set[str]) -> bool:
    for ref in (rule.match.port_in, rule.output):
        if ref.kind != "vnf":
            continue
        if ref.element in nf_ids:
            return True
        # A load-balancer rule's output names the replica *base* id;
        # tearing down any replica (nf@k) invalidates the whole hash
        # spread, so the rule must be reinstalled over the new group.
        if ref is rule.output and is_lb_rule_id(rule.rule_id) \
                and any(replica_base(nf_id) == ref.element
                        for nf_id in nf_ids):
            return True
    return False


class Reconciler:
    """Drives every graph's observed state towards its desired state."""

    def __init__(self, placement: PlacementPolicy,
                 compute: ComputeManager,
                 steering: TrafficSteeringManager,
                 accountant: ResourceAccountant,
                 images: ImageRegistry,
                 journal: Optional[EventJournal] = None) -> None:
        self.placement = placement
        self.compute = compute
        self.steering = steering
        self.accountant = accountant
        self.images = images
        self.journal = journal if journal is not None else EventJournal()
        #: per-graph reentrant locks — REST handler threads, control-loop
        #: shard workers and the autoscaler all serialize through these
        #: (see :meth:`lock`); no global lock on the *read/plan* path.
        self.locks = GraphLockRegistry()
        #: node-wide mutex for plan *execution* only: structural steps
        #: mutate shared node layers (accountant, LSI-0 ports, steering
        #: registries, drivers) that per-graph locks cannot cover.
        #: Empty-plan ticks — the steady-state majority — never take it.
        self.execution_lock = threading.Lock()
        #: steering-visible desired graphs (replicas expanded)
        self.desired: dict[str, Nffg] = {}
        #: desired graphs exactly as the caller handed them in —
        #: replica counts intact; the autoscaler edits *these*.
        self.desired_raw: dict[str, Nffg] = {}
        self.observed: dict[str, DeployedGraph] = {}
        self.last_plans: dict[str, Plan] = {}
        #: per-(graph, nf) failed heal attempts; escalates restart->recreate
        self._heal_attempts: dict[tuple[str, str], int] = {}
        self.max_ticks = 16
        self.ticks_run = 0
        self.failures_detected = 0
        self.heals = 0
        #: Optional :class:`repro.telemetry.tracing.Tracer` (wired by
        #: :class:`~repro.core.node.ComputeNode`).  Plan/step latency
        #: histograms, step spans carrying their journal seq, and the
        #: heal anomaly trigger all hang off it; every hook is
        #: ``if tracer is not None``-guarded so bare reconciler tests and
        #: the control-plane bench pay nothing.
        self.tracer = None

    # -- locking -----------------------------------------------------------------
    def lock(self, graph_id: str) -> threading.RLock:
        """The graph's control-plane lock (``with reconciler.lock(id):``).

        Reentrant, so the natural call nesting — orchestrator verb ->
        :meth:`reconcile` -> :meth:`tick` — takes it once per thread.
        Every mutation path through the engine (tick, reconcile,
        set/clear desired, forget) acquires it; REST handlers and the
        autoscaler take it around their own check-then-act sequences so
        decisions and the state they were decided on cannot be torn
        apart by a concurrent tick.
        """
        return self.locks.get(graph_id)

    # -- desired state -----------------------------------------------------------
    def set_desired(self, graph: Nffg) -> None:
        with self.lock(graph.graph_id):
            self.desired_raw[graph.graph_id] = graph
            expanded = expand_replicas(graph)
            self.desired[graph.graph_id] = expanded
            detail = (f"{len(graph.nfs)} NFs, "
                      f"{len(expanded.flow_rules)} rules")
            if len(expanded.nfs) != len(graph.nfs):
                detail = (f"{len(graph.nfs)} NFs "
                          f"({len(expanded.nfs)} replica-expanded), "
                          f"{len(expanded.flow_rules)} rules")
            if graph.policies:
                detail += f", {len(graph.policies)} scaling policies"
            self.journal.append(graph.graph_id, "desired-set", detail=detail)

    def clear_desired(self, graph_id: str) -> None:
        with self.lock(graph_id):
            self.desired_raw.pop(graph_id, None)
            if self.desired.pop(graph_id, None) is not None:
                self.journal.append(graph_id, "desired-cleared")

    # -- observed state ----------------------------------------------------------
    def _observed_graph(self, record: DeployedGraph) -> Nffg:
        """The graph that is *actually realized* right now: every NF
        with a live instance, every rule the steering registry holds."""
        graph = Nffg(graph_id=record.graph.graph_id,
                     name=record.graph.name)
        graph.nfs = [record.realized_nfs[nf_id]
                     for nf_id in record.instances
                     if nf_id in record.realized_nfs]
        desired = self.desired.get(record.graph_id)
        if desired is not None:
            graph.endpoints = list(desired.endpoints)
        if record.graph_id in self.steering.graphs:
            graph.flow_rules = list(
                self.steering.installed_rules(record.graph_id).values())
        return graph

    # -- health ------------------------------------------------------------------
    def check_health(self, graph_id: str) -> list[str]:
        """Probe every RUNNING instance; mark unhealthy ones FAILED.

        Returns the nf_ids that newly failed (detection only — healing
        is planned by the next :meth:`plan` compilation).
        """
        record = self.observed.get(graph_id)
        if record is None:
            return []
        failed: list[str] = []
        for nf_id, instance in record.instances.items():
            if not instance.is_running:
                continue
            verdict = self.compute.health(instance.instance_id)
            if not verdict.healthy:
                instance.transition("fail")
                self.failures_detected += 1
                failed.append(nf_id)
                self.journal.append(graph_id, "health-failed", nf_id=nf_id,
                                    detail=verdict.detail)
        return failed

    # -- plan compilation --------------------------------------------------------
    def plan(self, graph_id: str) -> Plan:
        """Compile the current desired/observed divergence into steps."""
        desired = self.desired.get(graph_id)
        record = self.observed.get(graph_id)
        plan = Plan(graph_id=graph_id)
        if record is None and desired is None:
            return plan
        steps = plan.steps
        teardown = desired is None
        network_exists = graph_id in self.steering.graphs

        if record is None:
            record_graph_name = desired.name
            observed = Nffg(graph_id=graph_id, name=record_graph_name)
            instances: dict[str, NfInstance] = {}
        else:
            observed = self._observed_graph(record)
            instances = record.instances
        target = desired if desired is not None \
            else Nffg(graph_id=graph_id, name=observed.name)
        diff = diff_nffg(observed, target)

        removed = {spec.nf_id for spec in diff.removed_nfs}
        added = [spec.nf_id for spec in diff.added_nfs]

        # Heal decisions for FAILED instances that stay in the graph.
        heal_restart: list[str] = []
        heal_recreate: list[str] = []
        if not teardown:
            for nf_id, instance in instances.items():
                if instance.is_failed and nf_id not in removed:
                    if self._heal_attempts.get((graph_id, nf_id), 0) == 0:
                        heal_restart.append(nf_id)
                    else:
                        heal_recreate.append(nf_id)
        torn = removed | set(heal_recreate)

        # Rules to delete: explicitly removed/changed ones, plus every
        # installed rule touching an NF about to lose its ports.
        installed = (self.steering.installed_rules(graph_id)
                     if network_exists else {})
        doomed: list[str] = [rule.rule_id for rule in diff.removed_rules]
        reinstall: list[FlowRule] = []
        if torn:
            desired_rules = ({rule.rule_id: rule
                              for rule in target.flow_rules})
            for rule_id, rule in installed.items():
                if rule_id in doomed or not _rule_touches(rule, torn):
                    continue
                doomed.append(rule_id)
                kept = desired_rules.get(rule_id)
                if kept is not None:
                    reinstall.append(kept)

        if not network_exists and not teardown:
            steps.append(PlanStep("create-network"))
        for rule_id in doomed:
            steps.append(PlanStep("delete-rule", rule_id=rule_id))
        if teardown:
            for nf_id in instances:
                if instances[nf_id].is_running:
                    steps.append(PlanStep("stop", nf_id=nf_id))
            if network_exists:
                steps.append(PlanStep("destroy-network"))
            for nf_id in list(instances):
                steps.append(PlanStep("destroy", nf_id=nf_id))
            return plan
        for nf_id in sorted(removed):
            if nf_id in instances and instances[nf_id].is_running:
                steps.append(PlanStep("stop", nf_id=nf_id))
        for nf_id in sorted(removed):
            if nf_id in instances:
                steps.append(PlanStep("destroy", nf_id=nf_id))
        for nf_id in heal_recreate:
            steps.append(PlanStep("destroy", nf_id=nf_id,
                                  detail="heal: recreate"))

        # Bring-up: new NFs, recreated NFs, and resumed partial ones.
        for nf_id in added:
            if record is None or nf_id not in record.placements:
                steps.append(PlanStep("place", nf_id=nf_id))
            steps.append(PlanStep("create", nf_id=nf_id))
            steps.append(PlanStep("configure", nf_id=nf_id))
        for nf_id in heal_recreate:
            steps.append(PlanStep("place", nf_id=nf_id,
                                  detail="heal: recreate"))
            steps.append(PlanStep("create", nf_id=nf_id,
                                  detail="heal: recreate"))
            steps.append(PlanStep("configure", nf_id=nf_id,
                                  detail="heal: recreate"))
        resumed: list[str] = []
        for nf_id, instance in instances.items():
            if nf_id in torn:
                continue
            if instance.state is InstanceState.CREATED:
                steps.append(PlanStep("configure", nf_id=nf_id,
                                      detail="resume"))
                resumed.append(nf_id)
        reconfigured = {spec.nf_id for spec in diff.reconfigured_nfs}
        for nf_id in sorted(reconfigured - set(resumed) - torn):
            if nf_id in instances and instances[nf_id].is_running:
                steps.append(PlanStep("reconfigure", nf_id=nf_id))
        for nf_id in heal_restart:
            steps.append(PlanStep("restart", nf_id=nf_id,
                                  detail="heal: restart in place"))

        # Rules before starts (deploy semantics: an NF never comes up
        # without its steering in place).
        for rule in diff.added_rules:
            steps.append(PlanStep("install-rule", rule_id=rule.rule_id))
        for rule in reinstall:
            steps.append(PlanStep("install-rule", rule_id=rule.rule_id,
                                  detail="reinstall"))
        for nf_id in added:
            steps.append(PlanStep("start", nf_id=nf_id))
        for nf_id in heal_recreate:
            steps.append(PlanStep("start", nf_id=nf_id,
                                  detail="heal: recreate"))
        for nf_id, instance in instances.items():
            if nf_id in torn or nf_id in added:
                continue
            if instance.state in (InstanceState.CONFIGURED,
                                  InstanceState.STOPPED) \
                    or nf_id in resumed:
                steps.append(PlanStep("start", nf_id=nf_id,
                                      detail="resume"))
        return plan

    # -- step execution ----------------------------------------------------------
    def _instantiate(self, graph_id: str, spec: NfInstanceSpec,
                     decision: PlacementDecision) -> NfInstance:
        template = self.placement.repository.get(decision.template_name)
        impl = decision.implementation
        if impl.image not in self.images:
            raise ReconcileError(
                f"{spec.nf_id}: image {impl.image!r} missing from "
                f"repository")
        allocation = self.accountant.allocate(
            owner=f"{graph_id}/{spec.nf_id}", cpu_cores=impl.cpu_cores,
            ram_mb=impl.ram_mb, disk_mb=impl.disk_mb)
        instance_spec = InstanceSpec(
            instance_id=f"{graph_id}-{spec.nf_id}",
            graph_id=graph_id,
            nf_id=spec.nf_id,
            template_name=template.name,
            functional_type=template.functional_type,
            logical_ports=template.ports,
            implementation=impl,
            config=spec.config_dict())
        try:
            instance = self.compute.create(instance_spec)
        except Exception:
            self.accountant.release(allocation)
            raise
        instance.allocation = allocation
        try:
            self.steering.attach_instances(graph_id,
                                           {spec.nf_id: instance})
        except Exception:
            self.compute.destroy(instance.instance_id)
            if instance.allocation is not None \
                    and not instance.allocation.released:
                self.accountant.release(instance.allocation)
            raise
        return instance

    def _destroy_instance(self, record: DeployedGraph, nf_id: str) -> None:
        # The record is only updated after the driver verbs succeed, so
        # a failing destroy leaves the observed state still owning the
        # instance and the next tick retries it.
        instance = record.instances[nf_id]
        if instance.is_running:
            self.compute.stop(instance.instance_id)
        if record.graph_id in self.steering.graphs:
            self.steering.detach_instance(record.graph_id, nf_id, instance)
        self.compute.destroy(instance.instance_id)
        if instance.allocation is not None \
                and not instance.allocation.released:
            self.accountant.release(instance.allocation)
        record.instances.pop(nf_id, None)
        record.placements.pop(nf_id, None)
        record.realized_nfs.pop(nf_id, None)
        if instance.shared:
            self.steering.prune_dead_trunks()

    def _sync_rule_count(self, record: DeployedGraph) -> None:
        if record.graph_id in self.steering.graphs:
            record.rules_installed = len(
                self.steering.installed_rules(record.graph_id))
        else:
            record.rules_installed = 0

    def _execute(self, record: DeployedGraph, step: PlanStep) -> None:
        graph_id = record.graph_id
        desired = self.desired.get(graph_id)
        kind = step.kind
        if kind == "create-network":
            self.steering.create_graph_network(graph_id)
        elif kind == "delete-rule":
            self.steering.uninstall_rule(graph_id, step.rule_id)
            self._sync_rule_count(record)
        elif kind == "stop":
            instance = record.instances[step.nf_id]
            if instance.is_running:
                self.compute.stop(instance.instance_id)
        elif kind == "destroy-network":
            self.steering.remove_graph_network(graph_id)
            record.rules_installed = 0
        elif kind == "destroy":
            self._destroy_instance(record, step.nf_id)
        elif kind == "place":
            spec = desired.nf(step.nf_id)
            record.placements[step.nf_id] = \
                self.placement.decide_one(spec)
        elif kind == "create":
            spec = desired.nf(step.nf_id)
            decision = record.placements[step.nf_id]
            instance = self._instantiate(graph_id, spec, decision)
            record.instances[step.nf_id] = instance
            record.realized_nfs[step.nf_id] = spec
        elif kind == "configure":
            spec = desired.nf(step.nf_id)
            instance = record.instances[step.nf_id]
            instance.spec.config.clear()
            instance.spec.config.update(spec.config_dict())
            self.compute.configure(instance.instance_id)
            record.realized_nfs[step.nf_id] = spec
        elif kind == "reconfigure":
            spec = desired.nf(step.nf_id)
            instance = record.instances[step.nf_id]
            self.compute.update(instance.instance_id, spec.config_dict())
            record.realized_nfs[step.nf_id] = spec
        elif kind == "restart":
            instance = record.instances[step.nf_id]
            self.compute.restart(instance.instance_id)
            verdict = self.compute.health(instance.instance_id)
            if not verdict.healthy:
                raise ReconcileError(
                    f"{step.nf_id}: restart did not recover "
                    f"({verdict.detail})")
            self.heals += 1
            event = self.journal.append(graph_id, "healed",
                                        nf_id=step.nf_id,
                                        detail="restarted in place")
            if self.tracer is not None:
                self.tracer.anomaly("heal",
                                    detail=f"{step.nf_id} restarted "
                                           f"in place",
                                    seq=event.seq, graph_id=graph_id)
        elif kind == "install-rule":
            rule = next(r for r in desired.flow_rules
                        if r.rule_id == step.rule_id)
            self.steering.install_rules(desired, record.instances, [rule])
            self._sync_rule_count(record)
        elif kind == "start":
            instance = record.instances[step.nf_id]
            if not instance.is_running:
                self.compute.start(instance.instance_id)
            if step.detail.startswith("heal"):
                self.heals += 1
                event = self.journal.append(graph_id, "healed",
                                            nf_id=step.nf_id,
                                            detail="recreated")
                if self.tracer is not None:
                    self.tracer.anomaly("heal",
                                        detail=f"{step.nf_id} recreated",
                                        seq=event.seq, graph_id=graph_id)
        else:  # pragma: no cover - kind union is closed
            raise ReconcileError(f"unknown plan step kind {kind!r}")

    # -- the loop ----------------------------------------------------------------
    def tick(self, graph_id: str) -> Plan:
        """One detect-plan-execute pass; returns the (annotated) plan.

        Serialized per graph: a REST deploy, the control loop's shard
        worker and a manual ``repro graph reconcile`` can all tick the
        same graph_id, and interleaved plan executions would double-run
        steps compiled against a state another thread already changed.
        """
        with self.lock(graph_id):
            return self._tick_locked(graph_id)

    def _tick_locked(self, graph_id: str) -> Plan:
        self.ticks_run += 1
        record = self.observed.get(graph_id)
        if record is not None:
            self.check_health(graph_id)
        desired = self.desired.get(graph_id)
        if record is None and desired is not None:
            record = DeployedGraph(graph=desired)
            self.observed[graph_id] = record
        tracer = self.tracer
        if tracer is not None:
            plan_started = time.perf_counter()
            plan = self.plan(graph_id)
            tracer.histograms.observe("reconcile_plan", (),
                                      time.perf_counter() - plan_started)
        else:
            plan = self.plan(graph_id)
        self.last_plans[graph_id] = plan
        if plan.steps:
            plan_event = self.journal.append(graph_id, "plan",
                                             detail=plan.summary())
            # Executing steps touches *node-shared* layers — the
            # resource accountant, LSI-0's port table, the steering
            # registries, the drivers — which per-graph locks do not
            # cover when two shard workers execute structural steps for
            # different graphs at once.  One node-wide mutex around
            # execution closes that; the common steady-state tick (all
            # converged, empty plan) never takes it, so a sharded fleet
            # still probes and plans in parallel.
            with self.execution_lock:
                self._execute_steps(graph_id, record, plan,
                                    plan_seq=plan_event.seq)
        else:
            self._execute_steps(graph_id, record, plan)
        desired = self.desired.get(graph_id)
        if record is not None and desired is not None:
            record.graph = desired
        if plan.converged and record is not None:
            # All instances passed this tick's health probe: forget the
            # escalation counters (a RUNNING state alone is not enough —
            # a half-successful restart leaves RUNNING but unhealthy).
            for nf_id in record.instances:
                self._heal_attempts.pop((graph_id, nf_id), None)
        if desired is None and record is not None \
                and not record.instances \
                and graph_id not in self.steering.graphs \
                and plan.failed_step is None:
            del self.observed[graph_id]
            self._drop_heal_attempts(graph_id)
            self.journal.append(graph_id, "removed")
        if plan.converged and self.journal.last_kind(graph_id) \
                not in ("", "converged"):
            # A re-probe of an already-converged graph is not news.
            self.journal.append(graph_id, "converged")
        if desired is None and graph_id not in self.observed:
            self._retire(graph_id)
        return plan

    def _execute_steps(self, graph_id: str,
                       record: "Optional[DeployedGraph]",
                       plan: Plan,
                       plan_seq: Optional[int] = None) -> None:
        tracer = self.tracer
        plan_span = None
        if tracer is not None and plan.steps:
            plan_span = tracer.start_span("reconcile.plan", seq=plan_seq,
                                          graph=graph_id,
                                          steps=len(plan.steps))
        for step in plan.steps:
            step_span = None
            if tracer is not None:
                step_span = tracer.start_span(f"step.{step.kind}",
                                              parent=plan_span,
                                              graph=graph_id,
                                              nf=step.nf_id,
                                              rule=step.rule_id)
            try:
                self._execute(record, step)
            except Exception as exc:
                step.status = "failed"
                step.error = str(exc)
                event = self.journal.append(graph_id, "step-failed",
                                            nf_id=step.nf_id,
                                            rule_id=step.rule_id,
                                            detail=f"{step.kind}: {exc}")
                if step_span is not None:
                    tracer.histograms.observe(
                        "reconcile_step", (step.kind,),
                        time.perf_counter() - step_span.start_wall)
                    tracer.end_span(step_span, seq=event.seq,
                                    error=str(exc))
                key = (graph_id, step.nf_id)
                if step.nf_id and (
                        step.detail.startswith("heal")
                        or step.kind == "restart"
                        # A failed recreate leaves the NF looking like a
                        # plain bring-up next tick; while its heal
                        # counter is live, those failures are still
                        # heal failures.
                        or key in self._heal_attempts):
                    self._heal_attempts[key] = \
                        self._heal_attempts.get(key, 0) + 1
                break
            step.status = "done"
            event = self.journal.append(graph_id, "step-ok",
                                        nf_id=step.nf_id,
                                        rule_id=step.rule_id,
                                        detail=step.describe())
            if step_span is not None:
                tracer.histograms.observe(
                    "reconcile_step", (step.kind,),
                    time.perf_counter() - step_span.start_wall)
                tracer.end_span(step_span, seq=event.seq)
        if plan_span is not None:
            tracer.end_span(plan_span)

    def reconcile(self, graph_id: str,
                  max_ticks: Optional[int] = None) -> ReconcileResult:
        """Tick until converged; raises :class:`ReconcileError` when a
        tick makes no progress or the budget runs out.

        Holds the graph lock across the whole convergence run, so a
        caller that was promised "converged" cannot have the goalposts
        moved mid-run by a concurrent desired-state write.
        """
        with self.lock(graph_id):
            return self._reconcile_locked(graph_id, max_ticks)

    def _reconcile_locked(self, graph_id: str,
                          max_ticks: Optional[int]) -> ReconcileResult:
        budget = max_ticks if max_ticks is not None else self.max_ticks
        executed = 0
        last_failure: Optional[tuple] = None
        for tick_no in range(1, budget + 1):
            plan = self.tick(graph_id)
            if plan.converged:
                return ReconcileResult(graph_id=graph_id, converged=True,
                                       ticks=tick_no,
                                       steps_executed=executed)
            executed += plan.done_count
            failed = plan.failed_step
            if failed is not None and plan.done_count == 0:
                # A failed step can still be progress — a failed
                # restart escalates the next plan to a recreate — so
                # only the *same* failure twice in a row is "stuck".
                signature = (failed.kind, failed.target, failed.error)
                if signature == last_failure:
                    raise ReconcileError(
                        f"graph {graph_id!r} stuck at step "
                        f"'{failed.describe()}': {failed.error}")
                last_failure = signature
            else:
                last_failure = None
        raise ReconcileError(
            f"graph {graph_id!r} did not converge within {budget} ticks")

    def _retire(self, graph_id: str) -> None:
        """The graph is neither desired nor observed: keep nothing that
        grows with the number of graph ids ever seen.  The journal stays
        readable for a bounded while (:meth:`EventJournal.retire`); the
        graph's lock stays for good (:class:`GraphLockRegistry`)."""
        self.last_plans.pop(graph_id, None)
        self.journal.retire(graph_id)

    def _drop_heal_attempts(self, graph_id: str) -> None:
        for key in [key for key in self._heal_attempts
                    if key[0] == graph_id]:
            del self._heal_attempts[key]

    def forget(self, graph_id: str, teardown: bool = True) -> bool:
        """Drop a graph's desired state and clean up its remains.

        With ``teardown`` (the default) the engine first converges to
        empty; if that teardown *fails*, the observed record is kept —
        its instances and allocations are real, and silently dropping
        the record would leak them with nothing left to retry — and a
        later :meth:`reconcile` resumes the cleanup.  ``teardown=False``
        is the explicit abandon-as-is escape hatch (no verbs executed,
        record dropped regardless).  Returns True once the record is
        gone.
        """
        with self.lock(graph_id):
            return self._forget_locked(graph_id, teardown)

    def _forget_locked(self, graph_id: str, teardown: bool) -> bool:
        self.clear_desired(graph_id)
        if teardown:
            try:
                self.reconcile(graph_id)
            except ReconcileError as exc:
                self.journal.append(graph_id, "abandon-failed",
                                    detail=str(exc))
                return graph_id not in self.observed
        if self.observed.pop(graph_id, None) is not None:
            self.journal.append(graph_id, "abandoned")
        self._drop_heal_attempts(graph_id)
        self._retire(graph_id)
        return True
