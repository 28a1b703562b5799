"""Paper-evaluation models: regenerate the paper's Table 1 and ablations.

Absolute numbers on the authors' CPE are not reproducible in a
simulator; what is reproducible — and what the benches assert — is the
*shape* of Table 1: VM markedly slowest and heaviest, Docker ≈ Native
on throughput, Native smallest in RAM and image by a wide margin.

Throughput is modelled, not executed: a packet's per-packet service
time is the sum of calibrated cost components, and one saturated core
forwards ``frame·8/Σs`` bits per second (``CostModel.throughput_mbps``).
What is executed is the deployment itself and the probe frame pushed
through it.

* :mod:`repro.perf.costmodel` — per-packet cost decomposition per
  packaging technology, calibrated against Table 1 (constants carry
  their derivations), and the closed-form throughput;
* :mod:`repro.perf.memory` — RAM footprint decomposition per flavor;
* :mod:`repro.perf.table1` — the Table 1 experiment driver;
* :mod:`repro.perf.capture` — pcap capture from datapath taps or
  wires.

The paper-evaluation benches that assert these shapes are
``benchmarks/bench_*.py``; measured end-to-end throughput of this
repo's own dataplane and control plane is ``benchmarks/nfbench``'s job.
"""

from repro.perf.costmodel import CostModel, NfWorkload
from repro.perf.memory import MemoryModel
from repro.perf.table1 import Table1Row, run_table1

__all__ = [
    "CostModel",
    "MemoryModel",
    "NfWorkload",
    "Table1Row",
    "run_table1",
]
