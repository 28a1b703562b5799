"""One measured pass over one workload.

A pass is: set-up (build the system, first frame through, then a fixed
number of warm-up cycles that fuse programs and prime state — "ready"
means ready) -> ``gc.collect()`` -> the timed window -> the workload's
post-window work -> output checks.  The window is a closed loop on one
generator thread, ``seconds`` of wall time long.  Set-up is repeated:
the repetitions after the first build throw-away copies of the system
and are spread evenly *through* the window, so one run samples its
set-up cost at several moments instead of one.

**Quiet-host estimators.**  The sandboxes this runs in flip, for
seconds at a time, between a fast state and one 1.5-2x slower (a busy
sibling hyperthread or a lowered clock; ``steal`` stays 0), and the
slow state only ever *adds* time.  Whole-window means and medians
follow the host's mood rather than the code, so every timing is
reported as an estimate of the undisturbed program:

* operations are cut into consecutive *slices* (at least
  :data:`SLICE_OPS` operations and :data:`SLICE_NS` of busy time); the
  slice median tracks the host state of that moment;
* ``op_p50_us`` is the smallest slice median — the median operation
  of the quietest slice;
* every operation is divided by its own slice's median, which cancels
  the host state and keeps the program's own spread (re-traces,
  evictions, GC); throughput is verified work over the busy time at
  quiet speed, ``op_p50 x sum(ratios)``, and the tail percentile is
  ``op_p50 x percentile(ratios)``;
* ``setup_s`` is the first decile of its samples (the minimum, below
  ten samples).

On a quiet host these reduce to the plain median, work / busy time and
percentile.  Generator and checker time between operations is in
neither: busy time is the sum of the operations' own wall times.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Optional

from .spec import WORKLOADS
from .workloads import BY_NAME, Recorder, Workload

__all__ = ["Pass", "percentile", "quiet", "run_pass"]

_clock = time.perf_counter_ns
_TAIL = {workload.name: workload.tail for workload in WORKLOADS}

#: a slice closes once it holds this many operations ...
SLICE_OPS = 8
#: ... and this much busy time
SLICE_NS = 250_000_000


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quiet(samples) -> float:
    """First decile of ``samples``: the quiet-host estimate of a time."""
    return percentile(sorted(samples), 0.10)


def _slices(op_ns) -> list[list[int]]:
    out: list[list[int]] = []
    current: list[int] = []
    busy = 0
    for duration in op_ns:
        current.append(duration)
        busy += duration
        if len(current) >= SLICE_OPS and busy >= SLICE_NS:
            out.append(current)
            current, busy = [], 0
    if current:
        if out:
            out[-1] += current
        else:
            out.append(current)
    return out


@dataclass
class Pass:
    """Everything one pass measured."""

    workload: Workload
    setup_ns: list[int]
    op_ns: array
    window_ns: int
    counts_before: dict
    counts_after: dict
    rss_mb: float

    def __post_init__(self) -> None:
        slices = _slices(self.op_ns)
        medians = [statistics.median(chunk) for chunk in slices]
        #: median operation on the quiet host, ns
        self.op_quiet_ns = min(medians) if medians else 0.0
        #: every operation over its own slice's median, ascending
        self.ratios = sorted(duration / median
                             for chunk, median in zip(slices, medians)
                             for duration in chunk)
        self.slices = len(slices)

    @property
    def busy_s(self) -> float:
        """Measured busy time (the host's mood included)."""
        return sum(self.op_ns) / 1e9

    @property
    def ops_per_s(self) -> float:
        quiet_busy_s = self.op_quiet_ns * sum(self.ratios) / 1e9
        return self.workload.work_done / quiet_busy_s if quiet_busy_s \
            else 0.0

    @property
    def op_tail_us(self) -> float:
        return self.op_quiet_ns \
            * percentile(self.ratios, _TAIL[self.workload.name]) / 1e3

    def end_to_end(self) -> dict:
        """``name -> (value, sample count)`` for every end-to-end metric."""
        return {
            "setup_s": (quiet(self.setup_ns) / 1e9, len(self.setup_ns)),
            "ops_per_s": (self.ops_per_s, len(self.op_ns)),
            "op_p50_us": (self.op_quiet_ns / 1e3, len(self.op_ns)),
            "rss_mb": (self.rss_mb, 1),
        }


def run_pass(name: str, seed: int, seconds: float, small: bool = False,
             tracer=None, setup_reps: Optional[int] = None,
             profiler=None) -> Pass:
    """Run one pass of workload ``name``.

    ``tracer`` (a :class:`~.shims.SpanTracer` whose shims are already
    installed) is switched on for the window and the post-window work
    only; ``profiler`` (a ``cProfile.Profile``) likewise.  The caller
    owns the workload afterwards and must call ``teardown()``.
    """
    workload = BY_NAME[name](seed, small)
    reps = setup_reps if setup_reps is not None else workload.setup_reps
    # Throw-away set-ups run on a second instance with inputs of its
    # own, so they never advance the measured instance's schedule.
    spare = BY_NAME[name](seed, small) if reps > 1 else None
    setup_ns: list[int] = []

    def ready(instance: Workload) -> None:
        gc.collect()
        started = _clock()
        instance.setup()
        instance.warmup()
        setup_ns.append(_clock() - started)

    ready(workload)
    gc.collect()
    workload.begin_window()
    counts_before = workload.counts()
    recorder = Recorder(tracer)
    cycle = workload.cycle
    window_ns = 0
    part_ns = int(seconds * 1e9 / reps)
    for part in range(reps):
        if tracer is not None:
            tracer.on = True
        if profiler is not None:
            profiler.enable()
        started = _clock()
        deadline = started + part_ns
        while _clock() < deadline:
            cycle(recorder)
        if part == reps - 1:
            workload.after_window(recorder)
        window_ns += _clock() - started
        if profiler is not None:
            profiler.disable()
        if tracer is not None:
            tracer.on = False
        if part < reps - 1:
            ready(spare)
            spare.teardown()
            gc.collect()
    counts_after = workload.counts()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.verify()
    if spare is not None:
        workload.absorb(spare)
    return Pass(workload=workload, setup_ns=setup_ns, op_ns=recorder.times,
                window_ns=window_ns, counts_before=counts_before,
                counts_after=counts_after, rss_mb=rss_mb)
