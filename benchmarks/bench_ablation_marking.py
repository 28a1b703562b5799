"""Ablation 2 — the adaptation layer's marking mechanism (paper §2).

The single-interface adaptation layer costs two VLAN operations per
packet on the trunk plus the per-graph demux rules inside the NNF.
This bench measures both halves:

* functional: frames of G multiplexed graphs through one shared NNF
  trunk, verifying zero cross-graph leakage at increasing G;
* timing: per-packet overhead of VLAN push/pop + mark rules vs an
  untagged dedicated port.
"""

import pytest

from benchmarks.conftest import print_block
from repro import ComputeNode, Nffg
from repro.catalog.templates import Technology
from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.perf.costmodel import CostModel, NfWorkload

CLIENT = MacAddress("02:aa:00:00:00:01")
REMOTE = MacAddress("02:aa:00:00:00:02")


def multiplexed_node(graphs: int) -> ComputeNode:
    node = ComputeNode("ablation-marking")
    node.add_physical_interface("wan0")
    for index in range(1, graphs + 1):
        node.add_physical_interface(f"lan{index}")
        graph = Nffg(graph_id=f"m{index}")
        graph.add_nf("nat", "nat", config={
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
        node.deploy(graph)
    return node


def drive_all_graphs(node: ComputeNode, graphs: int) -> dict[str, str]:
    """Send one flow per graph; returns {payload: egress source ip}."""
    seen: dict[str, str] = {}
    wire = node.wire("wan0")
    wire.attach_handler(lambda dev, frame: seen.update({
        parse_frame(frame).udp.payload.decode():
        parse_frame(frame).ipv4.src}))
    try:
        for index in range(1, graphs + 1):
            node.wire(f"lan{index}").transmit(make_udp_frame(
                CLIENT, REMOTE, f"10.{index}.0.9", "8.8.8.8",
                2000 + index, 53, f"graph{index}".encode()))
    finally:
        wire.detach_handler()
    return seen


def overhead_percent(tagged: bool, marking_rules: int) -> float:
    model = CostModel()
    base = model.chain_seconds([model.nf_seconds(
        Technology.NATIVE, NfWorkload.nat(), 1500)])
    with_marking = model.chain_seconds([model.nf_seconds(
        Technology.NATIVE, NfWorkload.nat(), 1500,
        marking_rules=marking_rules, tagged_port=tagged)])
    slow = CostModel.throughput_mbps(with_marking.total, 1500)
    fast = CostModel.throughput_mbps(base.total, 1500)
    return 100.0 * (fast - slow) / fast


@pytest.fixture(scope="module")
def report():
    lines = ["correctness: graphs multiplexed over one trunk -> own pool"]
    for graphs in (2, 4, 8):
        node = multiplexed_node(graphs)
        seen = drive_all_graphs(node, graphs)
        ok = all(seen.get(f"graph{i}") == f"100.64.{i}.2"
                 for i in range(1, graphs + 1))
        lines.append(f"  G={graphs}: {len(seen)} egress flows, "
                     f"isolation {'OK' if ok else 'VIOLATED'}")
    lines.append("marking overhead vs dedicated untagged port:")
    for graphs in (1, 4, 16, 64):
        pct = overhead_percent(tagged=True, marking_rules=graphs)
        lines.append(f"  G={graphs:<3} {pct:5.2f}% throughput tax")
    print_block("Ablation 2: adaptation-layer marking", "\n".join(lines))
    return None


def test_marking_benchmark(benchmark, report):
    """Times the 4-graph multiplexed deployment + correctness drive."""
    def run():
        node = multiplexed_node(4)
        return drive_all_graphs(node, 4)
    seen = benchmark(run)
    assert len(seen) == 4
    for index in range(1, 5):
        assert seen[f"graph{index}"] == f"100.64.{index}.2"


def test_marking_overhead_small_at_cpe_scale(report):
    # A CPE hosts a handful of graphs; the tax must stay tiny.
    assert overhead_percent(tagged=True, marking_rules=4) < 5.0


def test_marking_overhead_grows_with_rules(report):
    assert (overhead_percent(tagged=True, marking_rules=64)
            > overhead_percent(tagged=True, marking_rules=1))
