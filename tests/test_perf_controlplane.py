"""Control-plane fleet gates: one-tick convergence, durable policies, journal.

A sharded fleet is deployed declaratively (``set_desired``, exactly
what a REST burst does), part of it is re-PUT without its scaling
policies, and reconfigure rounds rewrite a third of it at a time.  The
loop is stepped directly, which ticks the shard partitions round-robin,
so every figure is exact.  Tick latency is ``nfbench``'s job
(``control-churn``).  :func:`_check_fleet` asserts; the ``*_catch_*``
tests inject one regression each with ``monkeypatch`` and show it
fails.
"""

import pytest

from repro.core.orchestrator import LocalOrchestrator
from repro.core.reconciler import Reconciler, ShardedEventJournal, \
    shard_of_graph
from repro.telemetry import Autoscaler, ControlLoop

from tests.test_control_concurrency import _big_node, _graph

GRAPHS = 24
SHARDS = 4
#: Every this-many-th graph carries a persisted scaling policy.
POLICY_EVERY = 6


def _fleet_graph(index, rounds="0"):
    graph = _graph(f"g{index:02d}", rounds=rounds)
    if index % POLICY_EVERY == 0:
        graph.add_policy("fw", target_pps=10000.0, max_replicas=2)
    return graph


def _converge(loop, what):
    """Step until a step executes nothing; returns the productive steps.

    A tick executes a graph's whole plan, so a fleet-wide change takes
    exactly one productive step.
    """
    for productive in range(10):
        executed = loop.step()["steps-executed"]
        assert loop.tick_errors == 0, (
            f"the loop absorbed {loop.tick_errors} tick error(s), last: "
            f"{loop.last_error!r}")
        if executed == 0:
            assert productive == 1, (
                f"{what} took {productive} productive ticks (expected 1)")
            return
    raise AssertionError(f"{what} did not converge in 10 productive ticks")


def _check_fleet():
    node = _big_node()
    reconciler = node.orchestrator.reconciler
    loop = ControlLoop(node.orchestrator, node.telemetry, shards=SHARDS,
                       autoscaler=Autoscaler(reconciler=reconciler,
                                             registry=node.telemetry))
    indices = range(GRAPHS)
    graph_ids = [f"g{i:02d}" for i in indices]
    for index in indices:
        reconciler.set_desired(_fleet_graph(index))
    _converge(loop, "mass deploy")

    # A plain NF-FG re-PUT carries no policies and must not drop them.
    policy_ids = graph_ids[::POLICY_EVERY]
    for graph_id in policy_ids:
        node.update(_graph(graph_id))
    kept = [g for g in policy_ids if reconciler.desired_raw[g].policies]
    assert kept == policy_ids, (
        f"only {len(kept)}/{len(policy_ids)} graphs kept their persisted "
        "policies across a plain re-PUT")

    for round_no in (1, 2):
        for index in indices[round_no::3]:
            reconciler.set_desired(_fleet_graph(index, rounds=str(round_no)))
        _converge(loop, f"reconfigure round {round_no}")

    journal = reconciler.journal
    assert isinstance(journal, ShardedEventJournal)
    assert set(graph_ids) <= set(journal.graphs())
    assert {shard_of_graph(g, SHARDS) for g in graph_ids} == \
        set(range(SHARDS))
    dropped = sum(journal.dropped_count(g) for g in graph_ids)
    assert dropped == 0, f"{dropped} journal events dropped"
    for graph_id in graph_ids:
        assert node.orchestrator.status(graph_id)["converged"], graph_id
    assert not loop.last_error


def test_quick_fleet_converges_and_gates():
    _check_fleet()


def test_gates_catch_convergence_regression(monkeypatch):
    """A plan split across ticks (one step per tick) misses the
    one-productive-tick gate."""
    original = Reconciler.plan

    def one_step_per_tick(reconciler, graph_id):
        plan = original(reconciler, graph_id)
        del plan.steps[1:]
        return plan

    monkeypatch.setattr(Reconciler, "plan", one_step_per_tick)
    with pytest.raises(AssertionError, match="productive ticks"):
        _check_fleet()


def test_gates_catch_policy_and_journal_regressions(monkeypatch):
    """An update that replaces policies wholesale, journal rings too
    small for the churn, and a failing health probe each fail their
    gate."""
    def update_dropping_policies(orchestrator, new_graph):
        orchestrator.reconciler.set_desired(new_graph)
        orchestrator.reconciler.reconcile(new_graph.graph_id)

    with monkeypatch.context() as patch:
        patch.setattr(LocalOrchestrator, "update", update_dropping_policies)
        with pytest.raises(AssertionError, match="persisted policies"):
            _check_fleet()

    original_journal = ShardedEventJournal.__init__
    with monkeypatch.context() as patch:
        patch.setattr(ShardedEventJournal, "__init__",
                      lambda journal, **kwargs: original_journal(
                          journal, **{**kwargs, "max_events": 3}))
        with pytest.raises(AssertionError, match="journal events dropped"):
            _check_fleet()

    original_probe = Reconciler.check_health

    def probe_failing_on_g05(reconciler, graph_id):
        if graph_id == "g05":
            raise RuntimeError("injected: health probe crashed")
        return original_probe(reconciler, graph_id)

    with monkeypatch.context() as patch:
        patch.setattr(Reconciler, "check_health", probe_failing_on_g05)
        with pytest.raises(AssertionError, match="tick error"):
            _check_fleet()
