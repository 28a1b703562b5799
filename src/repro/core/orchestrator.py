"""The local orchestrator: NF-FG in, running service out.

Deployment pipeline (paper §2): validate the graph, decide VNF-vs-NNF
per NF, admit resources, create instances through the right management
drivers, build the graph's LSI + virtual link, install steering rules
through the per-LSI OpenFlow controllers, start the NFs.

Since the reconciliation refactor, ``deploy``/``update``/``undeploy``
are thin wrappers that record *desired* state and run the
:class:`~repro.core.reconciler.Reconciler` to convergence — every
caller (REST, CLI, tests) therefore exercises the same plan-compile /
checkpointed-execute engine, and a mid-operation driver failure leaves
the node in a consistent, retryable state instead of a half-applied
one.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.compute.manager import ComputeManager
from repro.core.placement import PlacementPolicy
from repro.core.reconciler import (
    DeployedGraph,
    EventJournal,
    GraphEvent,
    Plan,
    ReconcileError,
    ReconcileResult,
    Reconciler,
)
from repro.core.steering import TrafficSteeringManager
from repro.nffg.model import Nffg
from repro.nffg.validate import NffgValidationError, validate_nffg
from repro.resources.accounting import ResourceAccountant
from repro.resources.images import ImageRegistry

__all__ = ["DeployedGraph", "LocalOrchestrator", "OrchestrationError"]


class OrchestrationError(Exception):
    """Deployment failed; the orchestrator rolled back what it could."""


class LocalOrchestrator:
    """Receives NF-FGs (from REST or Python callers) and realises them."""

    def __init__(self, placement: PlacementPolicy,
                 compute: ComputeManager,
                 steering: TrafficSteeringManager,
                 accountant: ResourceAccountant,
                 images: ImageRegistry) -> None:
        self.placement = placement
        self.compute = compute
        self.steering = steering
        self.accountant = accountant
        self.images = images
        self.reconciler = Reconciler(placement=placement, compute=compute,
                                     steering=steering,
                                     accountant=accountant, images=images)
        #: observed per-graph records (shared with the reconciler)
        self.deployed: dict[str, DeployedGraph] = self.reconciler.observed
        self.deploys = 0
        self.deploy_failures = 0

    @property
    def journal(self) -> EventJournal:
        return self.reconciler.journal

    def events(self, graph_id: str) -> list[GraphEvent]:
        """The graph's reconciliation journal (survives undeploy, as
        a retired log — see :meth:`EventJournal.retire`)."""
        return self.reconciler.journal.events(graph_id)

    def _validate(self, graph: Nffg) -> None:
        try:
            validate_nffg(
                graph,
                known_templates=set(self.placement.repository.names()))
        except NffgValidationError as exc:
            raise OrchestrationError(f"invalid NF-FG: {exc}") from exc

    # -- deploy -----------------------------------------------------------------
    def deploy(self, graph: Nffg) -> DeployedGraph:
        with self.reconciler.lock(graph.graph_id):
            return self._deploy_locked(graph)

    def _deploy_locked(self, graph: Nffg) -> DeployedGraph:
        started = time.perf_counter()
        if graph.graph_id in self.reconciler.desired:
            raise OrchestrationError(
                f"graph {graph.graph_id!r} is already deployed "
                "(use update)")
        try:
            self._validate(graph)
        except OrchestrationError:
            self.deploy_failures += 1
            raise
        self.reconciler.set_desired(graph)
        try:
            self.reconciler.reconcile(graph.graph_id)
        except ReconcileError as exc:
            # Initial deploys are all-or-nothing: converge back to
            # empty so no allocations, namespaces or rules linger.
            self.reconciler.clear_desired(graph.graph_id)
            try:
                self.reconciler.reconcile(graph.graph_id)
            except ReconcileError:
                pass
            self.deploy_failures += 1
            raise OrchestrationError(
                f"deploying {graph.graph_id!r} failed: {exc}") from exc
        record = self.deployed[graph.graph_id]
        record.modeled_deploy_seconds = (
            sum(i.boot_seconds for i in record.instances.values())
            + 0.001 * record.rules_installed)
        record.wall_deploy_seconds = time.perf_counter() - started
        self.deploys += 1
        return record

    # -- undeploy ------------------------------------------------------------------
    def undeploy(self, graph_id: str) -> DeployedGraph:
        with self.reconciler.lock(graph_id):
            record = self._record(graph_id)
            self.reconciler.clear_desired(graph_id)
            try:
                self.reconciler.reconcile(graph_id)
            except ReconcileError as exc:
                raise OrchestrationError(
                    f"undeploying {graph_id!r} failed: {exc}") from exc
            return record

    # -- update --------------------------------------------------------------------
    def update(self, new_graph: Nffg) -> DeployedGraph:
        """In-place update: record the new desired graph and converge.

        Only the diff is touched — steering rules of unchanged NFs are
        never reinstalled.  On a mid-plan failure the applied prefix is
        kept (checkpointed), the error is raised, and the same update
        can simply be retried (or driven via :meth:`reconcile`).

        An update document without scaling policies keeps the graph's
        persisted ones: policies are durable graph state edited through
        ``PUT /graphs/{id}/policies``, and a plain NF-FG re-PUT must
        not silently disable autoscaling.  A document that *does* carry
        policies replaces them wholesale.
        """
        with self.reconciler.lock(new_graph.graph_id):
            record = self._record(new_graph.graph_id)
            previous = self.reconciler.desired_raw.get(new_graph.graph_id)
            if not new_graph.policies and previous is not None \
                    and previous.policies:
                new_graph.policies = list(previous.policies)
            self._validate(new_graph)
            self.reconciler.set_desired(new_graph)
            try:
                self.reconciler.reconcile(new_graph.graph_id)
            except ReconcileError as exc:
                raise OrchestrationError(
                    f"updating {new_graph.graph_id!r} failed: {exc} "
                    "(desired state kept; retry with update or reconcile)"
                ) from exc
            return record

    # -- apply (upsert) --------------------------------------------------------------
    def apply(self, graph: Nffg) -> "tuple[DeployedGraph, bool]":
        """Deploy-or-update under the graph lock; returns (record, created).

        The REST ``PUT /nffg/{id}`` handler used to check ``deployed``
        and then call deploy or update *outside* any lock — two
        concurrent PUTs could both see "not deployed", race into
        ``deploy``, and the loser surfaced a spurious 409 (a lost
        update).  Holding the graph lock across the check and the verb
        makes the decision and its execution one atomic step.
        """
        with self.reconciler.lock(graph.graph_id):
            if graph.graph_id in self.reconciler.desired:
                return self.update(graph), False
            return self.deploy(graph), True

    # -- reconcile / heal ------------------------------------------------------------
    def reconcile(self, graph_id: str) -> ReconcileResult:
        """Run the engine to convergence for one graph (heals too)."""
        with self.reconciler.lock(graph_id):
            if graph_id not in self.reconciler.desired \
                    and graph_id not in self.deployed:
                raise OrchestrationError(f"no deployed graph {graph_id!r}")
            try:
                return self.reconciler.reconcile(graph_id)
            except ReconcileError as exc:
                raise OrchestrationError(
                    f"reconciling {graph_id!r} failed: {exc}") from exc

    def tick(self, graph_id: str) -> Plan:
        """One reconciliation pass (detect failures, execute one plan)."""
        return self.reconciler.tick(graph_id)

    # -- queries --------------------------------------------------------------------
    def _record(self, graph_id: str) -> DeployedGraph:
        try:
            return self.deployed[graph_id]
        except KeyError:
            raise OrchestrationError(
                f"no deployed graph {graph_id!r}") from None

    def status(self, graph_id: str) -> dict:
        record = self._record(graph_id)
        desired = self.reconciler.desired.get(graph_id)
        plan = self.reconciler.last_plans.get(graph_id)
        nfs = {}
        for nf_id, instance in record.instances.items():
            decision = record.placements.get(nf_id)
            nfs[nf_id] = {
                "technology": (decision.implementation.technology.value
                               if decision is not None
                               else instance.technology.value),
                "state": instance.state.value,
                "shared": instance.shared,
                "ram-mb": instance.runtime_ram_mb,
            }
        return {
            "graph-id": graph_id,
            "name": record.graph.name,
            "nfs": nfs,
            "flow-rules": record.rules_installed,
            "deploy-seconds": record.modeled_deploy_seconds,
            "desired-nfs": (len(desired.nfs) if desired is not None
                            else 0),
            "converged": plan.converged if plan is not None else False,
        }

    def list_graphs(self) -> list[str]:
        return sorted(self.deployed)
