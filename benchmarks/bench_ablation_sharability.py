"""Ablation 1 — sharable NNF vs per-graph instances (paper §2).

Design question: what does the sharability machinery buy (and cost)?

* RAM: K graphs through one shared component vs K dedicated instances
  (per-graph namespaces) vs K Docker containers vs K VMs;
* throughput: the shared instance pays the marking tax (mark rules
  scanned per packet + VLAN ops on the trunk) — quantified per K.

Expected shape: shared-NNF RAM is flat in K while every alternative
grows linearly; the marking tax stays single-digit percent for
CPE-scale K.
"""

import pytest

from benchmarks.conftest import print_block
from repro import ComputeNode, Nffg
from repro.catalog.templates import Technology
from repro.perf.costmodel import CostModel, NfWorkload

K_GRAPHS = 4


def nat_graph(index: int, technology=None) -> Nffg:
    graph = Nffg(graph_id=f"t{index}")
    graph.add_nf("nat", "nat", technology=technology, config={
        "lan.address": f"10.{index}.0.1/24",
        "wan.address": f"100.64.{index}.2/24",
        "gateway": f"100.64.{index}.1",
    })
    graph.add_endpoint("lan", f"lan{index}")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat:lan")
    graph.add_flow_rule("r2", "vnf:nat:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:nat:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat:wan",
                        ip_dst=f"100.64.{index}.0/24")
    return graph


def deploy_k(technology, k: int = K_GRAPHS) -> ComputeNode:
    node = ComputeNode("ablation-shar")
    node.add_physical_interface("wan0")
    for index in range(1, k + 1):
        node.add_physical_interface(f"lan{index}")
        node.deploy(nat_graph(index, technology))
    return node


def ram_for(technology, k: int = K_GRAPHS) -> float:
    node = deploy_k(technology, k)
    return sum(i.runtime_ram_mb for i in node.compute.instances())


def shared_throughput_mbps(k: int) -> float:
    """Throughput of one graph when the NNF is shared k ways."""
    model = CostModel()
    nf = model.nf_seconds(Technology.NATIVE, NfWorkload.nat(), 1500,
                          marking_rules=k, tagged_port=True)
    chain = model.chain_seconds([nf])
    return CostModel.throughput_mbps(chain.total, 1500)


@pytest.fixture(scope="module")
def report():
    rows = {
        "native (shared)": ram_for(None),
        "docker x K": ram_for("docker"),
        "vm x K": ram_for("vm"),
    }
    tput = {k: shared_throughput_mbps(k) for k in (1, 2, 4, 8, 16)}
    body = [f"RAM for K={K_GRAPHS} NAT graphs:"]
    body += [f"  {name:<16} {ram:8.1f} MB" for name, ram in rows.items()]
    body.append("throughput per graph vs sharing degree (marking tax):")
    body += [f"  K={k:<3} {mbps:8.0f} Mbps" for k, mbps in tput.items()]
    print_block("Ablation 1: sharability", "\n".join(body))
    return rows, tput


def test_sharability_ram_benchmark(benchmark, report):
    rows, tput = report
    total = benchmark(ram_for, None, K_GRAPHS)
    # One shared kernel component: RAM flat, far below K containers.
    assert total < rows["docker x K"] / 5
    assert rows["docker x K"] < rows["vm x K"] / 5
    # Marking tax stays below ~10% at CPE scale (K=8) and grows
    # monotonically with the sharing degree.
    assert tput[8] > 0.90 * tput[1]
    assert tput[1] >= tput[8] >= tput[16]


def test_shared_ram_flat_in_k(report):
    assert abs(ram_for(None, 2) - ram_for(None, 6)) < 1.0


def test_dedicated_ram_linear_in_k():
    two = ram_for("docker", 2)
    six = ram_for("docker", 6)
    assert six == pytest.approx(3 * two, rel=0.05)
