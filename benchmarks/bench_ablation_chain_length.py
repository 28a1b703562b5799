"""Ablation 4 — throughput vs chain length per flavor.

The NF-FG model allows arbitrary chains; this sweep extends the Table 1
methodology to 1..6 NAT-class NFs per chain and reports throughput per
flavor.  Expected shape:

* every flavor degrades roughly as 1/(a + b·k);
* the VM flavor degrades fastest (two vm-exits per NF crossing), so
  the VM:native gap *widens* with chain length — the longer the edge
  chain, the stronger the paper's case for NNFs.
"""

import pytest

from benchmarks.conftest import print_block
from repro.catalog.templates import Technology
from repro.perf.costmodel import CostModel, NfWorkload

LENGTHS = (1, 2, 3, 4, 6)
FLAVORS = (Technology.NATIVE, Technology.DOCKER, Technology.VM)


def chain_throughput(technology: Technology, length: int) -> float:
    model = CostModel()
    workload = NfWorkload.nat()
    hops = [model.nf_seconds(technology, workload, 1500,
                             uses_kernel_datapath=(
                                 technology is not Technology.VM))
            for _ in range(length)]
    chain = model.chain_seconds(hops)
    return CostModel.throughput_mbps(chain.total, 1500)


@pytest.fixture(scope="module")
def curves():
    data = {flavor: {k: chain_throughput(flavor, k) for k in LENGTHS}
            for flavor in FLAVORS}
    lines = [f"{'k':>3} " + " ".join(f"{f.value:>10}" for f in FLAVORS)]
    for k in LENGTHS:
        lines.append(f"{k:>3} " + " ".join(
            f"{data[f][k]:>9.0f}M" for f in FLAVORS))
    print_block("Ablation 4: throughput vs chain length", "\n".join(lines))
    return data


def test_chain_length_benchmark(benchmark, curves):
    result = benchmark(chain_throughput, Technology.NATIVE, 3)
    assert result > 0
    native, vm = curves[Technology.NATIVE], curves[Technology.VM]
    # Monotone decrease for every flavor.
    for flavor in FLAVORS:
        series = [curves[flavor][k] for k in LENGTHS]
        assert series == sorted(series, reverse=True), flavor
    # The VM gap widens with chain length.
    assert vm[6] / native[6] < vm[1] / native[1]


def test_native_and_docker_stay_close(curves):
    for k in LENGTHS:
        ratio = (curves[Technology.DOCKER][k]
                 / curves[Technology.NATIVE][k])
        assert 0.97 <= ratio <= 1.0


def test_vm_degradation_dominated_by_vmexits(curves):
    # Removing the vm-exit cost should collapse most of the VM gap
    # (compared in per-packet service time, where costs are additive).
    def chain_seconds(model, technology):
        hops = [model.nf_seconds(technology, NfWorkload.nat(), 1500,
                                 uses_kernel_datapath=(
                                     technology is not Technology.VM))
                for _ in range(6)]
        return model.chain_seconds(hops).total

    default = CostModel()
    no_exit_model = CostModel(vmexit_seconds=0.0)
    t_native = chain_seconds(default, Technology.NATIVE)
    t_vm = chain_seconds(default, Technology.VM)
    t_vm_no_exits = chain_seconds(no_exit_model, Technology.VM)
    assert t_vm_no_exits < t_vm
    remaining_gap = t_vm_no_exits - t_native
    full_gap = t_vm - t_native
    assert remaining_gap < 0.45 * full_gap
