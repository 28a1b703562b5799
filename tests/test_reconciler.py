"""Desired-state reconciliation: healing, targeted updates, journal.

The acceptance scenario: with a deployed chain graph, forcing one
instance unhealthy makes the reconciler converge back to the desired
graph within a bounded number of ticks — instance restarted or
re-placed, only that NF's steering rules reinstalled, flow counters on
untouched NFs preserved, and the full sequence visible in the event
journal.
"""

import pytest

from repro.catalog.templates import Technology
from repro.compute.base import ComputeDriver, DriverError, Health
from repro.compute.instances import InstanceState
from repro.core import ComputeNode, OrchestrationError
from repro.net import MacAddress, make_udp_frame
from repro.nffg.model import Nffg
from repro.resources.capabilities import NodeCapabilities
from repro.rest.app import RestApp
from repro.rest.client import RestClient

CLIENT = MacAddress("02:aa:00:00:00:01")
REMOTE = MacAddress("02:aa:00:00:00:02")


class FlakyDriver(ComputeDriver):
    """Docker-flavored driver with injectable health failures."""

    technology = Technology.DOCKER
    netns_prefix = "flaky"

    def __init__(self, host, restartable=True):
        super().__init__(host)
        self.sick = set()           # instance_ids that probe unhealthy
        self.restartable = restartable
        self.restarts = 0

    def create(self, spec):
        instance = super().create(spec)
        self.sick.discard(spec.instance_id)  # fresh containers are well
        return instance

    def restart(self, instance):
        if not self.restartable:
            raise DriverError("injected: process core-dumps on restart")
        super().restart(instance)
        self.restarts += 1
        self.sick.discard(instance.instance_id)

    def health(self, instance):
        if instance.instance_id in self.sick:
            return Health(False, "injected crash")
        return super().health(instance)


def heal_node(restartable=True):
    node = ComputeNode("heal-test",
                       capabilities=NodeCapabilities.datacenter_server())
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    driver = FlakyDriver(node.host, restartable=restartable)
    node.compute._drivers[Technology.DOCKER] = driver
    return node, driver


def chain_graph():
    graph = Nffg(graph_id="chain", name="heal chain")
    graph.add_nf("nat1", "nat", technology="docker", config={
        "lan.address": "192.168.1.1/24",
        "wan.address": "203.0.113.2/24",
        "gateway": "203.0.113.1"})
    graph.add_nf("dpi1", "dpi", technology="docker")
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat1:lan")
    graph.add_flow_rule("r2", "vnf:nat1:wan", "vnf:dpi1:in")
    graph.add_flow_rule("r3", "vnf:dpi1:out", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat1:wan")
    return graph


def entries_for(node, graph_id, rule_id):
    """The installed flow entries realizing one big-switch rule."""
    steering = node.steering
    network = steering.graph_network(graph_id)
    found = []
    for controller, match, priority in network.installed[rule_id].segments:
        datapath = (steering.base.datapath
                    if controller is steering.base_controller
                    else network.lsi.datapath)
        for entry in datapath.table:
            if entry.match == match and entry.priority == priority:
                found.append(entry)
    return found


def bump_r1(node):
    node.steering.inject_batch("lan0", [make_udp_frame(
        CLIENT, REMOTE, "192.168.1.5", "8.8.8.8", 1111, 53, b"ping")])


def journal_kinds(node, graph_id):
    return [event.kind for event in node.orchestrator.events(graph_id)]


# -- healing -----------------------------------------------------------------------

def test_restart_heal_converges_without_touching_rules():
    node, driver = heal_node()
    node.deploy(chain_graph())
    mods_before = (node.steering.base_controller.flow_mods_sent,
                   node.steering.graph_network("chain")
                   .controller.flow_mods_sent)
    driver.sick.add("chain-dpi1")

    result = node.orchestrator.reconcile("chain")

    assert result.converged and result.ticks <= 3
    assert driver.restarts == 1
    assert node.compute.get("chain-dpi1").is_running
    # Restart-in-place keeps every flow entry: zero extra flow-mods.
    assert mods_before == (node.steering.base_controller.flow_mods_sent,
                           node.steering.graph_network("chain")
                           .controller.flow_mods_sent)
    kinds = journal_kinds(node, "chain")
    assert "health-failed" in kinds and "healed" in kinds
    assert kinds[-1] == "converged"


def test_recreate_heal_reinstalls_only_the_failed_nfs_rules():
    node, driver = heal_node(restartable=False)
    node.deploy(chain_graph())
    bump_r1(node)
    r1_before = [(e.entry_id, e.packets) for e in
                 entries_for(node, "chain", "r1")]
    r4_before = [e.entry_id for e in entries_for(node, "chain", "r4")]
    r2_before = [e.entry_id for e in entries_for(node, "chain", "r2")]
    assert any(packets == 1 for _, packets in r1_before)
    old_instance = node.compute.get("chain-dpi1")
    driver.sick.add("chain-dpi1")

    result = node.orchestrator.reconcile("chain")

    assert result.converged and result.ticks <= 4
    # A fresh instance replaced the dead one.
    replacement = node.compute.get("chain-dpi1")
    assert replacement is not old_instance and replacement.is_running
    assert old_instance.state is InstanceState.DESTROYED
    # Untouched NF rules survived with identical entries and counters.
    assert [(e.entry_id, e.packets) for e in
            entries_for(node, "chain", "r1")] == r1_before
    assert [e.entry_id for e in entries_for(node, "chain", "r4")] \
        == r4_before
    # The failed NF's rules were reinstalled (new entries)...
    r2_after = [e.entry_id for e in entries_for(node, "chain", "r2")]
    assert r2_after and not set(r2_after) & set(r2_before)
    # ...and the graph is whole: all four rules realized, traffic flows.
    assert node.orchestrator.deployed["chain"].rules_installed == 4
    bump_r1(node)
    assert any(e.packets == 2 for e in entries_for(node, "chain", "r1"))
    kinds = journal_kinds(node, "chain")
    assert "health-failed" in kinds
    assert "step-failed" in kinds        # the refused restart
    healed = [event for event in node.orchestrator.events("chain")
              if event.kind == "healed"]
    assert healed and healed[-1].detail == "recreated"


def test_accountant_stays_balanced_across_recreate():
    node, driver = heal_node(restartable=False)
    node.deploy(chain_graph())
    owners_before = sorted(a.owner for a in node.accountant.allocations())
    driver.sick.add("chain-dpi1")
    node.orchestrator.reconcile("chain")
    assert sorted(a.owner for a in node.accountant.allocations()) \
        == owners_before


def test_flapping_instance_exhausts_tick_budget():
    node, driver = heal_node()
    node.deploy(chain_graph())

    class AlwaysSick(FlakyDriver):
        def health(self, instance):
            return Health(False, "chronically ill")

    node.compute._drivers[Technology.DOCKER] = AlwaysSick(node.host)
    with pytest.raises(OrchestrationError, match="did not converge"):
        node.orchestrator.reconcile("chain")


# -- targeted updates ---------------------------------------------------------------

def test_update_leaves_unchanged_rules_installed():
    node, driver = heal_node()
    node.deploy(chain_graph())
    bump_r1(node)
    before = {rule_id: [(e.entry_id, e.packets) for e in
                        entries_for(node, "chain", rule_id)]
              for rule_id in ("r1", "r2", "r3", "r4")}
    base_mods = node.steering.base_controller.flow_mods_sent

    updated = chain_graph()
    updated.add_flow_rule("r5", "endpoint:wan", "vnf:dpi1:in",
                          ip_dst="10.9.0.0/16")
    node.update(updated)

    for rule_id, entries in before.items():
        assert [(e.entry_id, e.packets) for e in
                entries_for(node, "chain", rule_id)] == entries
    assert node.orchestrator.deployed["chain"].rules_installed == 5
    assert node.steering.base_controller.flow_mods_sent >= base_mods


def test_update_flow_mod_delta_is_only_the_diff():
    node, driver = heal_node()
    node.deploy(chain_graph())
    network = node.steering.graph_network("chain")
    before = (node.steering.base_controller.flow_mods_sent
              + network.controller.flow_mods_sent)

    updated = chain_graph()
    updated.add_flow_rule("r5", "endpoint:wan", "vnf:dpi1:in",
                          ip_dst="10.9.0.0/16")
    node.update(updated)

    after = (node.steering.base_controller.flow_mods_sent
             + network.controller.flow_mods_sent)
    assert after - before == len(network.installed["r5"].segments)

    # A no-op update is free: zero flow-mods, zero lifecycle churn.
    node.update(updated)
    assert (node.steering.base_controller.flow_mods_sent
            + network.controller.flow_mods_sent) == after


def test_update_removing_nf_removes_its_ports_and_rules():
    node, driver = heal_node()
    node.deploy(chain_graph())
    network = node.steering.graph_network("chain")
    ports_with_dpi = len(network.lsi.datapath.ports)

    trimmed = chain_graph()
    trimmed.nfs = [spec for spec in trimmed.nfs if spec.nf_id != "dpi1"]
    trimmed.flow_rules = [rule for rule in trimmed.flow_rules
                          if rule.rule_id in ("r1", "r4")]
    node.update(trimmed)

    assert "chain-dpi1" not in [i.instance_id
                                for i in node.compute.instances()]
    assert sorted(network.installed) == ["r1", "r4"]
    assert len(network.lsi.datapath.ports) < ports_with_dpi
    assert sorted(a.owner for a in node.accountant.allocations()) \
        == ["chain/nat1"]


# -- journal + REST + plans ----------------------------------------------------------

def test_journal_records_full_lifecycle():
    node, driver = heal_node()
    node.deploy(chain_graph())
    kinds = journal_kinds(node, "chain")
    assert kinds[0] == "desired-set"
    assert "plan" in kinds and "step-ok" in kinds
    assert kinds[-1] == "converged"
    node.undeploy("chain")
    kinds = journal_kinds(node, "chain")
    assert "desired-cleared" in kinds and "removed" in kinds


def test_plan_steps_are_inspectable():
    node, driver = heal_node()
    node.deploy(chain_graph())
    plan = node.orchestrator.reconciler.last_plans["chain"]
    assert plan.converged
    driver.sick.add("chain-dpi1")
    node.orchestrator.tick("chain")
    plan = node.orchestrator.reconciler.last_plans["chain"]
    assert [step.kind for step in plan.steps] == ["restart"]
    assert plan.steps[0].status == "done"
    assert plan.steps[0].to_dict()["nf-id"] == "dpi1"


def test_rest_events_and_reconcile_endpoints():
    node, driver = heal_node()
    client = RestClient(RestApp(node))
    client.deploy_graph(chain_graph())
    events = client.graph_events("chain")
    assert events[0]["kind"] == "desired-set"
    driver.sick.add("chain-dpi1")
    result = client.reconcile_graph("chain")
    assert result["converged"] is True
    assert result["graph-id"] == "chain"
    assert any(event["kind"] == "healed"
               for event in client.graph_events("chain"))
    # Journal outlives the graph; unknown graphs 404.
    client.undeploy_graph("chain")
    assert client.graph_events("chain")
    assert client.get("/graphs/ghost/events").status == 404
    assert client.post("/graphs/ghost/reconcile").status == 404


def test_removed_graph_is_retired_readable_and_resumable():
    """A tick that ends with a graph neither desired nor observed
    retires its journal and forgets its plan; the history stays served
    and a re-created id continues it."""
    node, driver = heal_node()
    client = RestClient(RestApp(node))
    reconciler = node.orchestrator.reconciler
    journal = reconciler.journal
    node.deploy(chain_graph())
    assert "chain" in reconciler.last_plans
    node.undeploy("chain")
    assert "chain" not in reconciler.last_plans
    assert "chain" in journal._retired and "chain" not in journal._events
    history = journal_kinds(node, "chain")
    assert history[0] == "desired-set" and "removed" in history
    assert journal.last_kind("chain") == history[-1]
    assert journal.graphs() == ["chain"]
    served = client.get("/graphs/chain/events")
    assert served.status == 200
    assert [event["kind"] for event in served.body["events"]] == history
    # Ticking an id the node holds nothing for retains nothing either.
    node.orchestrator.tick("ghost")
    assert "ghost" not in reconciler.last_plans
    assert journal.graphs() == ["chain"]
    # Re-created: the same log goes on, and is live again.
    node.deploy(chain_graph())
    resumed = journal_kinds(node, "chain")
    assert resumed[:len(history)] == history
    assert resumed[len(history)] == "desired-set"
    assert "chain" in journal._events and not journal._retired
    assert journal._retired_events == 0
    # The abandon-as-is path ends neither desired nor observed as well.
    assert reconciler.forget("chain", teardown=False)
    assert "chain" in journal._retired
    assert "chain" not in reconciler.last_plans
    assert journal_kinds(node, "chain")[-1] == "abandoned"


def test_retired_journals_stay_bounded_over_any_number_of_ids():
    from repro.core.reconciler import EventJournal, ShardedEventJournal

    journal = ShardedEventJournal(shards=4, max_events=50)
    anomalies = []
    journal.on_drop = lambda graph_id, event: anomalies.append(graph_id)
    for i in range(10_000):
        graph_id = f"sub-{i}"
        for kind in ("desired-set", "plan", "removed"):
            journal.append(graph_id, kind)
        journal.retire(graph_id)
    for shard in journal.shards:
        assert not shard._events
        assert 0 < shard._retired_events <= shard.max_events
        assert shard._retired_events == sum(
            len(log) for log in shard._retired.values())
        assert not shard._dropped
    # Eviction of a retired log is not a journal-drop anomaly.
    assert anomalies == []
    # The most recently removed graph is whole, the oldest gone, and
    # the merged export is exactly what the shards still hold.
    assert [e.kind for e in journal.events("sub-9999")] == [
        "desired-set", "plan", "removed"]
    assert journal.last_kind("sub-9999") == "removed"
    assert journal.events("sub-0") == [] and journal.last_kind("sub-0") == ""
    merged = journal.merged_events()
    assert len(merged) == sum(s._retired_events for s in journal.shards)
    assert {e.graph_id for e in merged} == set(journal.graphs())
    assert [e.seq for e in merged] == sorted(e.seq for e in merged)

    # A ring that overflowed keeps its drop count while its log is
    # held, and the count goes when the log does.
    single = EventJournal(max_events=4)
    for i in range(6):
        single.append("noisy", f"kind-{i}")
    single.retire("noisy")
    assert single.dropped_count("noisy") == 2
    assert [e.kind for e in single.events("noisy")] == [
        "kind-2", "kind-3", "kind-4", "kind-5"]
    single.append("next", "removed")
    single.retire("next")  # 5 retired events > 4: the oldest log goes
    assert single.events("noisy") == []
    assert single.dropped_count("noisy") == 0
    assert single.graphs() == ["next"] and single._retired_events == 1
    single.retire("next")  # already retired: no double count
    single.retire("never-seen")
    assert single._retired_events == 1
    single.forget("next")
    assert single.graphs() == [] and single._retired_events == 0


def test_adopt_carries_retired_logs_over_as_retired():
    from repro.core.reconciler import EventJournal, ShardedEventJournal

    single = EventJournal(max_events=5)
    for graph_id in ("gone-1", "gone-2"):
        single.append(graph_id, "desired-set")
        single.append(graph_id, "removed")
        single.retire(graph_id)
    single.append("live", "desired-set")
    sharded = ShardedEventJournal(shards=2, max_events=5)
    sharded.adopt(single)
    assert sharded.graphs() == ["gone-1", "gone-2", "live"]
    assert [e.seq for e in sharded.merged_events()] == [1, 2, 3, 4, 5]
    for graph_id in ("gone-1", "gone-2"):
        shard = sharded.shard_for(graph_id)
        assert graph_id in shard._retired and graph_id not in shard._events
        assert sharded.last_kind(graph_id) == "removed"
    assert "live" in sharded.shard_for("live")._events


def test_status_reports_convergence_and_desired():
    node, driver = heal_node()
    node.deploy(chain_graph())
    status = node.orchestrator.status("chain")
    assert status["converged"] is True
    assert status["desired-nfs"] == 2
    assert status["nfs"]["dpi1"]["state"] == "running"


# -- driver health probes -------------------------------------------------------------

def test_base_health_detects_missing_namespace():
    node, driver = heal_node()
    node.deploy(chain_graph())
    instance = node.compute.get("chain-dpi1")
    del node.host.namespaces[instance.netns]
    verdict = node.compute.health("chain-dpi1")
    assert not verdict.healthy and "gone" in verdict.detail


def test_dpdk_health_detects_dead_poll_loop():
    node = ComputeNode("dpdk-health",
                       capabilities=NodeCapabilities.datacenter_server())
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    graph = Nffg(graph_id="fast")
    graph.add_nf("fwd", "l2-forwarder-dpdk", technology="dpdk")
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:fwd:in")
    graph.add_flow_rule("r2", "vnf:fwd:out", "endpoint:wan")
    node.deploy(graph)
    instance = node.compute.get("fast-fwd")
    assert node.compute.health("fast-fwd").healthy
    namespace = node.host.namespace(instance.netns)
    for name in instance.inner_devices.values():
        namespace.device(name).detach_handler()
    verdict = node.compute.health("fast-fwd")
    assert not verdict.healthy and "poll loop" in verdict.detail
    # And the reconciler brings it back.
    result = node.orchestrator.reconcile("fast")
    assert result.converged
    assert node.compute.health("fast-fwd").healthy
