"""Performance harness: regenerates the paper's evaluation numbers.

Absolute numbers on the authors' CPE are not reproducible in a
simulator; what is reproducible — and what the benches assert — is the
*shape* of Table 1: VM markedly slowest and heaviest, Docker ≈ Native
on throughput, Native smallest in RAM and image by a wide margin.

* :mod:`repro.perf.costmodel` — per-packet cost decomposition per
  packaging technology, calibrated against Table 1 (constants carry
  their derivations);
* :mod:`repro.perf.pipeline` — discrete-event packet pipeline: a
  closed-loop source drives a CPU-bound service chain, goodput is
  metered at the sink;
* :mod:`repro.perf.iperf` — the iPerf-like load generator/sink pair;
* :mod:`repro.perf.memory` — RAM footprint decomposition per flavor;
* :mod:`repro.perf.table1` — the Table 1 experiment driver;
* :mod:`repro.perf.capture` — pcap capture from datapath taps or
  wires.

The paper-evaluation benches that assert these shapes are
``benchmarks/bench_*.py``; measured end-to-end throughput of this
repo's own dataplane and control plane is ``benchmarks/nfbench``'s job.
"""

from repro.perf.costmodel import CostModel, NfWorkload
from repro.perf.iperf import IperfResult, run_iperf
from repro.perf.memory import MemoryModel
from repro.perf.pipeline import PacketPipeline, Stage, measure_throughput
from repro.perf.table1 import Table1Row, run_table1

__all__ = [
    "CostModel",
    "IperfResult",
    "MemoryModel",
    "NfWorkload",
    "PacketPipeline",
    "Stage",
    "Table1Row",
    "measure_throughput",
    "run_iperf",
    "run_table1",
]
