"""The Table 1 experiment: strongSwan as VM vs Docker vs Native NF.

For each flavor the driver deploys the paper's use case on a fresh CPE
node (an IPsec endpoint between the LAN and WAN) and probes the live
dataplane with a real frame (the ESP tunnel must actually encrypt).
The throughput column is modelled: the closed-form throughput of the
chain's calibrated per-packet cost. RAM comes from the memory
decomposition, image size from the image registry composition —
nothing in this module hard-codes a Table 1 cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.templates import Technology
from repro.core.node import ComputeNode
from repro.nffg.model import Nffg
from repro.perf.costmodel import CostModel, NfWorkload
from repro.perf.memory import MemoryModel
from repro.resources.images import ImageRegistry

__all__ = ["PAPER_TABLE1", "Table1Row", "ipsec_cpe_graph", "render_table",
           "run_table1"]

#: The paper's reported numbers, for side-by-side printing.
PAPER_TABLE1 = {
    "vm": {"throughput_mbps": 796.0, "ram_mb": 390.6, "image_mb": 522.0},
    "docker": {"throughput_mbps": 1095.0, "ram_mb": 24.2,
               "image_mb": 240.0},
    "native": {"throughput_mbps": 1094.0, "ram_mb": 19.4, "image_mb": 5.0},
}

#: strongSwan charon+starter resident set (MB) — the per-NF input of
#: the memory decomposition, equal to the paper's native RAM figure.
STRONGSWAN_RSS_MB = 19.4

_FLAVORS = (Technology.VM, Technology.DOCKER, Technology.NATIVE)

_IMAGES = {Technology.VM: "strongswan-vm",
           Technology.DOCKER: "strongswan-docker",
           Technology.NATIVE: "strongswan-native"}


@dataclass
class Table1Row:
    flavor: str
    throughput_mbps: float
    ram_mb: float
    image_mb: float
    probe_delivered: bool
    esp_on_wire: bool
    breakdown: dict[str, float]


def ipsec_cpe_graph(graph_id: str, technology: str) -> Nffg:
    """The paper's use case: a customer activates an IPsec endpoint VNF
    on his domestic CPE (ESP, tunnel mode)."""
    graph = Nffg(graph_id=graph_id, name="IPsec endpoint on CPE")
    graph.add_nf("vpn", "ipsec-endpoint", technology=technology, config={
        "lan.address": "192.168.1.1/24",
        "wan.address": "203.0.113.2/24",
        "gateway": "203.0.113.1",
        "ipsec.local": "203.0.113.2",
        "ipsec.peer": "198.51.100.9",
        "ipsec.local_subnet": "192.168.1.0/24",
        "ipsec.remote_subnet": "10.8.0.0/24",
        "ipsec.psk": "table1-psk",
    })
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:vpn:lan")
    graph.add_flow_rule("r2", "vnf:vpn:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:vpn:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:vpn:wan",
                        ip_dst="203.0.113.2/32")
    return graph


def _probe_esp(node: ComputeNode) -> tuple[bool, bool]:
    """Send a LAN frame; check it leaves the WAN as ESP ciphertext."""
    from repro.net import MacAddress, make_udp_frame, parse_frame
    captured = []
    wire = node.wire("wan0")
    wire.attach_handler(lambda dev, frame: captured.append(frame))
    try:
        node.wire("lan0").transmit(make_udp_frame(
            MacAddress("02:be:ef:00:00:01"),
            MacAddress("02:be:ef:00:00:02"),
            "192.168.1.50", "10.8.0.7", 40000, 5001,
            b"table1 secret payload"))
    finally:
        wire.detach_handler()
    if not captured:
        return False, False
    parsed = parse_frame(captured[0])
    esp = (parsed.ipv4 is not None and parsed.ipv4.proto == 50
           and b"table1 secret payload" not in parsed.ipv4.payload)
    return True, esp


def run_table1(frame_bytes: int = 1500,
               cost_model: "CostModel | None" = None) -> list[Table1Row]:
    """Run the full experiment; one row per flavor."""
    model = cost_model if cost_model is not None else CostModel()
    memory = MemoryModel()
    images = ImageRegistry.stock()
    workload = NfWorkload.ipsec_esp()
    rows = []
    for technology in _FLAVORS:
        node = ComputeNode(f"cpe-{technology.value}")
        node.add_physical_interface("lan0")
        node.add_physical_interface("wan0")
        node.deploy(ipsec_cpe_graph(f"t1-{technology.value}",
                                    technology.value))
        delivered, esp = _probe_esp(node)
        impl = node.repository.get("ipsec-endpoint").implementation_for(
            technology)
        nf_cost = model.nf_seconds(
            technology, workload, frame_bytes,
            uses_kernel_datapath=impl.uses_kernel_datapath)
        chain = model.chain_seconds([nf_cost], lsi_crossings=1)
        rows.append(Table1Row(
            flavor=technology.value,
            throughput_mbps=CostModel.throughput_mbps(chain.total,
                                                      frame_bytes),
            ram_mb=memory.runtime_mb(technology, STRONGSWAN_RSS_MB),
            image_mb=images.get(_IMAGES[technology]).size_mb,
            probe_delivered=delivered,
            esp_on_wire=esp,
            breakdown=dict(chain.components)))
    return rows


def render_table(rows: list[Table1Row]) -> str:
    """Paper-style table with paper numbers alongside."""
    header = (f"{'Platform':<12} {'Through.':>12} {'(paper)':>9} "
              f"{'RAM':>10} {'(paper)':>9} {'Image':>10} {'(paper)':>9}")
    names = {"vm": "KVM/QEMU", "docker": "Docker", "native": "Native NF"}
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = PAPER_TABLE1[row.flavor]
        lines.append(
            f"{names[row.flavor]:<12} "
            f"{row.throughput_mbps:>8.0f}Mbps {paper['throughput_mbps']:>8.0f} "
            f"{row.ram_mb:>8.1f}MB {paper['ram_mb']:>8.1f} "
            f"{row.image_mb:>8.0f}MB {paper['image_mb']:>8.0f}")
    return "\n".join(lines)
