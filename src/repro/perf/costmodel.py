"""Per-packet cost model, calibrated against the paper's Table 1.

Targets (1500-byte frames, one CPE core):

=========  ==================  ==========================
flavor     paper throughput    implied per-packet budget
=========  ==================  ==========================
KVM/QEMU   796 Mbps            1500·8 / 796e6  = 15.08 µs
Docker     1095 Mbps           1500·8 / 1095e6 = 10.96 µs
Native     1094 Mbps           1500·8 / 1094e6 = 10.97 µs
=========  ==================  ==========================

Decomposition (values chosen from public micro-benchmarks of the era,
then nudged within their plausible ranges so the totals land on the
budgets above; each constant documents its source range):

* switch path (LSI-0 lookup + virtual link + graph-LSI lookup):
  software OpenFlow switches forwarded 1-3 Mpps/core in 2016, so
  0.3-1 µs/packet; we use 1.0 µs total for the three hops.
* kernel stack traversal (netfilter hooks, routing, XFRM lookup):
  1.8 µs — classic ~1-2 µs figure for a forwarding path with conntrack.
* kernel AES-SHA ESP: ~5.4 ns/B (AESNI + SHA-NI at CPE clocks: the
  paper's 1.1 Gbps ceiling implies exactly this order).
* VM exits: ~1 µs each (kvm-unit-tests vmexit latencies: 0.7-1.5 µs);
  two per packet (in + out) on the virtio path without fancy offloads.
* guest/host copies: 0.3 ns/B each way (memcpy at ~3 GB/s effective).
* user-space crypto in the VM ("executing in user space ... within the
  hypervisor"): 6.3 ns/B — slower than the kernel path because the
  paper's guest lacked AES-NI passthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.templates import Technology

__all__ = ["CostModel", "NfWorkload", "PacketCostBreakdown"]


@dataclass(frozen=True)
class NfWorkload:
    """Per-packet work an NF performs, split fixed + per-byte.

    ``kernel_bytes_coeff`` applies when the flavor processes packets in
    (host or guest) kernel space; ``user_bytes_coeff`` when in user
    space (the VM flavor's strongSwan, DPI engines, ...).
    """

    name: str
    fixed_seconds: float = 0.0
    kernel_bytes_coeff: float = 0.0
    user_bytes_coeff: float = 0.0

    @staticmethod
    def ipsec_esp() -> "NfWorkload":
        return NfWorkload(name="ipsec-esp", fixed_seconds=0.2e-6,
                          kernel_bytes_coeff=5.316e-9,
                          user_bytes_coeff=6.12e-9)

    @staticmethod
    def nat() -> "NfWorkload":
        # conntrack lookup + header rewrite: flat per-packet cost
        return NfWorkload(name="nat", fixed_seconds=0.55e-6,
                          kernel_bytes_coeff=0.0,
                          user_bytes_coeff=0.12e-9)

    @staticmethod
    def firewall(rules: int = 10) -> "NfWorkload":
        # linear rule scan at ~25 ns/rule plus fixed hook cost
        return NfWorkload(name="firewall",
                          fixed_seconds=0.25e-6 + 25e-9 * rules)

    @staticmethod
    def bridge() -> "NfWorkload":
        return NfWorkload(name="bridge", fixed_seconds=0.18e-6)

    @staticmethod
    def dpi() -> "NfWorkload":
        return NfWorkload(name="dpi", fixed_seconds=0.8e-6,
                          user_bytes_coeff=18e-9,
                          kernel_bytes_coeff=18e-9)


@dataclass
class PacketCostBreakdown:
    """Named components of one packet's service time (seconds)."""

    components: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.components[name] = self.components.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.components.values())


@dataclass
class CostModel:
    """Calibrated constants + composition rules."""

    # switch path, per traversal of LSI-0 -> vlink -> graph LSI
    switch_path_seconds: float = 1.0e-6
    # extra flow-table lookup when a rule chain adds another LSI hop
    extra_lookup_seconds: float = 0.35e-6
    # kernel stack traversal inside an NF namespace
    kernel_stack_seconds: float = 1.8e-6
    # one veth/bridge hop (Docker's extra indirection)
    veth_hop_seconds: float = 0.02e-6
    # one VLAN tag push or pop (adaptation-layer marking): a handful of
    # memmove'd bytes, ~20 ns on CPE-class cores
    vlan_op_seconds: float = 0.02e-6
    # one iptables mark/classify rule evaluation (~25 ns/rule linear
    # scan in the mangle table; the sharability tax grows with graphs)
    mark_rule_seconds: float = 0.025e-6
    # one vm-exit on the virtio path
    vmexit_seconds: float = 1.0e-6
    vmexits_per_packet: int = 2
    # guest<->host copy, per byte per direction
    copy_bytes_coeff: float = 0.30e-9
    # DPDK poll-mode forwarder: no kernel, tiny per-packet budget
    dpdk_packet_seconds: float = 0.25e-6

    def nf_seconds(self, technology: Technology, workload: NfWorkload,
                   frame_bytes: int,
                   uses_kernel_datapath: bool = True,
                   marking_rules: int = 0,
                   tagged_port: bool = False) -> PacketCostBreakdown:
        """Service time for one packet crossing one NF.

        ``marking_rules`` counts the extra mangle-table rules evaluated
        in a *shared* NNF (one mark rule per attached graph is scanned
        until the packet's own rule hits — we charge the average);
        ``tagged_port`` adds the push+pop pair the adaptation layer
        costs on the trunk port.
        """
        cost = PacketCostBreakdown()
        if technology is Technology.DPDK:
            cost.add("dpdk-poll", self.dpdk_packet_seconds)
            cost.add("nf-fixed", workload.fixed_seconds)
            cost.add("nf-bytes", workload.user_bytes_coeff * frame_bytes)
            return cost
        cost.add("kernel-stack", self.kernel_stack_seconds)
        if technology is Technology.DOCKER:
            cost.add("veth-hop", self.veth_hop_seconds)
        if technology is Technology.VM:
            cost.add("vm-exits",
                     self.vmexit_seconds * self.vmexits_per_packet)
            cost.add("guest-copies",
                     2 * self.copy_bytes_coeff * frame_bytes)
        cost.add("nf-fixed", workload.fixed_seconds)
        in_kernel = uses_kernel_datapath and technology is not Technology.VM
        coeff = (workload.kernel_bytes_coeff if in_kernel
                 else workload.user_bytes_coeff)
        cost.add("nf-bytes", coeff * frame_bytes)
        if marking_rules:
            cost.add("marking", self.mark_rule_seconds * marking_rules)
        if tagged_port:
            cost.add("vlan-ops", 2 * self.vlan_op_seconds)
        return cost

    def chain_seconds(self, hops: list[PacketCostBreakdown],
                      lsi_crossings: int = 1) -> PacketCostBreakdown:
        """Total service time for a chain: switch path + NF hops."""
        cost = PacketCostBreakdown()
        cost.add("switch-path", self.switch_path_seconds * lsi_crossings)
        if len(hops) > 1:
            cost.add("extra-lookups",
                     self.extra_lookup_seconds * (len(hops) - 1))
        for hop in hops:
            for name, seconds in hop.components.items():
                cost.add(name, seconds)
        return cost

    @staticmethod
    def throughput_mbps(per_packet_seconds: float,
                        frame_bytes: int) -> float:
        """Closed-form throughput of one saturated core."""
        if per_packet_seconds <= 0:
            raise ValueError("per-packet time must be positive")
        if frame_bytes <= 0:
            raise ValueError("frame size must be positive")
        return frame_bytes * 8.0 / per_packet_seconds / 1e6
