"""Command line of nfbench: one run, a traced run, the full set, A/A.

``--workload W`` runs one workload in this process and ends with the
one-line JSON result the ``BENCHMARK.json`` contract asks for.  Without
it every workload runs in a fresh process of its own (peak RSS is per
process) and a summary follows; ``--aa`` does that twice and compares.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import platform
import pstats
import subprocess
import sys
import threading

from . import layers
from .harness import run_pass
from .shims import SpanTracer, installed
from .spec import (DEFAULT_SEED, END_TO_END, LAYER_METRICS, RUN_SECONDS,
                   WORKLOADS)

__all__ = ["main", "run_traced", "run_untraced"]

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: share of ``--seconds`` each pass of a traced run measures for (the
#: untraced reference pass, the traced pass, and with ``--profile`` the
#: profiled one)
TRACED_SHARE = 0.4

#: layers holding at least this share of traced self time must agree
#: with their cProfile share to within ``CROSSCHECK_POINTS``
CROSSCHECK_FLOOR = 0.10
CROSSCHECK_POINTS = 0.10


def environment() -> dict:
    """Where this run happened (printed and written with every result)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(_ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(_ROOT, ".git", head[5:])) as handle:
                head = handle.read().strip()
        commit = head
    except OSError:
        pass  # not a git checkout (the driver's copy is not)
    return {"python": platform.python_version(),
            "python_build": " ".join(platform.python_build()),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpu": cpu,
            "commit": commit}


def _result(workload, metrics: dict) -> dict:
    """The contract's result object."""
    return {"correct": workload.failed == 0,
            "attempted": max(1, workload.attempted),
            "failed": workload.failed,
            "metrics": metrics}


def _print_table(title: str, rows) -> None:
    print(f"\n{title}")
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {note}")


def run_untraced(name: str, seed: int, seconds: float, small: bool = False,
                 out: str = "") -> "tuple[dict, list[str]]":
    """One measured run: the end-to-end metrics of workload ``name``."""
    measured = run_pass(name, seed, seconds, small=small)
    try:
        values = measured.end_to_end()
    finally:
        measured.workload.teardown()
    units = {metric.name: metric.unit for metric in END_TO_END}
    operation = next(w.op for w in WORKLOADS if w.name == name)
    _print_table(
        f"{name}  seed={seed}  window={measured.window_ns / 1e9:.2f}s  "
        f"busy={measured.busy_s:.2f}s  slices={measured.slices}\n"
        f"  operation: {operation}",
        [(metric, value, units[metric], f"n={n}")
         for metric, (value, n) in values.items()])
    for key, value in layers.reported_only(measured).items():
        if value:
            print(f"  {key:<36} {value:>16.6g}        reported only")
    metrics = {metric: {"value": value, "unit": units[metric]}
               for metric, (value, _) in values.items()}
    result = _result(measured.workload, metrics)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"{name}-seed{seed}.json"), "w") as handle:
            json.dump({"environment": environment(), "workload": name,
                       "seed": seed, "seconds": seconds, **result,
                       "definitions": {metric.name: metric.meaning
                                       for metric in END_TO_END}},
                      handle, indent=2)
    return result, measured.workload.problems


class _ThreadProfiles:
    """cProfile on every thread started while active (the REST handler
    threads), merged into one ``pstats.Stats`` with the caller's."""

    def __init__(self) -> None:
        self.main = cProfile.Profile()
        self.others: list[cProfile.Profile] = []

    def _bootstrap(self, frame, event, arg) -> None:
        profile = cProfile.Profile()
        self.others.append(profile)
        profile.enable()  # replaces this hook on the new thread

    def __enter__(self) -> cProfile.Profile:
        threading.setprofile(self._bootstrap)
        return self.main

    def __exit__(self, *exc) -> None:
        threading.setprofile(None)

    def stats(self) -> pstats.Stats:
        merged = pstats.Stats(self.main)
        for profile in self.others:
            profile.create_stats()
            if profile.stats:
                merged.add(profile)
        return merged


def _crosscheck(tracer: SpanTracer, stats: pstats.Stats) -> list[str]:
    """Print the attributions side by side; returns the layers whose
    traced share and cProfile share (same entry points) disagree."""
    traced = layers.trace_shares(tracer)
    costs = layers.profiler_costs()
    profiled = layers.profile_shares(stats, tracer.entry_points, costs)
    by_module = layers.profile_shares(stats, None, costs)
    print("\nattribution cross-check (share of own time per layer; "
          f"cProfile's own {costs[0] * 1e9:.0f}+{costs[1] * 1e9:.0f} ns "
          "per call taken out)")
    print(f"  {'layer':<18} {'traced':>8} {'cProfile':>9} {'diff':>7} "
          f"{'cProfile by module':>20}")
    breaches = []
    for layer in sorted(set(traced) | set(profiled) | set(by_module),
                        key=lambda key: -traced.get(key, 0.0)):
        ours, theirs = traced.get(layer, 0.0), profiled.get(layer, 0.0)
        module = by_module.get(layer, 0.0)
        if max(ours, theirs, module) < 0.005:
            continue
        flag = ""
        if ours >= CROSSCHECK_FLOOR \
                and abs(ours - theirs) > CROSSCHECK_POINTS:
            flag = "  <-- disagree"
            breaches.append(layer)
        print(f"  {layer:<18} {ours:>8.3f} {theirs:>9.3f} "
              f"{ours - theirs:>+7.3f} {module:>20.3f}{flag}")
    return breaches


def run_traced(name: str, seed: int, seconds: float, small: bool = False,
               profile: bool = False,
               out: str = "") -> "tuple[dict, list[str]]":
    """The traced run: per-layer metrics of workload ``name``.

    Pass 1 runs without shims (the throughput reference, and the
    source of the reported-only fleet figures); pass 2 with the shims
    of :data:`.shims.SHIMS` installed; ``profile`` adds pass 3 under
    ``cProfile`` and fails the run when the two attributions disagree.
    """
    share = seconds * TRACED_SHARE
    reference = run_pass(name, seed, share, small=small, setup_reps=1)
    reference.workload.teardown()
    tracer = SpanTracer()
    with installed(tracer):
        traced = run_pass(name, seed, share, small=small, setup_reps=1,
                          tracer=tracer)
        traced.workload.teardown()
    values = layers.layer_metrics(traced, reference, tracer)
    workload = traced.workload
    workload.absorb(reference.workload)
    declared = {metric.name: metric for metric in LAYER_METRICS}
    _print_table(
        f"{name}  seed={seed}  traced window="
        f"{traced.window_ns / 1e9:.2f}s  spans={tracer.span_count}  "
        f"untraced {reference.ops_per_s:.6g}/s -> traced "
        f"{traced.ops_per_s:.6g}/s",
        [(metric, value, declared[metric].unit, declared[metric].layer)
         for metric, value in values.items()])
    print("\nspan totals (calls, inclusive ms, self ms)")
    for name_, total in sorted(zip(tracer.names, tracer.totals),
                               key=lambda row: -row[1][2]):
        if total[0]:
            print(f"  {name_:<32} {total[0]:>10} {total[1] / 1e6:>12.3f} "
                  f"{total[2] / 1e6:>12.3f}")
    if profile:
        profiles = _ThreadProfiles()
        with profiles as profiler:
            profiled = run_pass(name, seed, share, small=small,
                                setup_reps=1, profiler=profiler)
        profiled.workload.teardown()
        breaches = _crosscheck(tracer, profiles.stats())
        workload.attempted += 1
        if breaches:
            workload.fail(1, "traced and cProfile attribution disagree "
                             f"on: {', '.join(breaches)}")
    if out:
        os.makedirs(out, exist_ok=True)
        stem = os.path.join(out, f"{name}-seed{seed}")
        with open(f"{stem}-spans.json", "w") as handle:
            json.dump(tracer.dump(), handle)
        with open(f"{stem}-layers.json", "w") as handle:
            json.dump({"environment": environment(), "workload": name,
                       "seed": seed, "seconds": seconds,
                       "metrics": {
                           metric: {"value": value,
                                    "unit": declared[metric].unit,
                                    "layer": declared[metric].layer,
                                    "moves": declared[metric].moves}
                           for metric, value in values.items()},
                       "span_calls": {
                           span: total[0] for span, total
                           in zip(tracer.names, tracer.totals)}},
                      handle, indent=2)
    metrics = {metric: {"value": value, "unit": declared[metric].unit}
               for metric, value in values.items()}
    return _result(workload, metrics), workload.problems


# -- several workloads: one fresh process each -------------------------------------

def _spawn(name: str, args, trace: int) -> dict:
    """Run one workload in its own interpreter; returns its result."""
    command = [sys.executable, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "__main__.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.profile and trace:
        command.append("--profile")
    if args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name}: no output (exit {done.returncode})")
    return json.loads(lines[-1])


def _run_set(args) -> dict:
    return {workload.name: _spawn(workload.name, args, args.trace)
            for workload in WORKLOADS}


def _run_aa(args) -> int:
    """Two full untraced sets of the same code; every end-to-end
    metric must agree within its own bound."""
    args.trace = 0
    first, second = _run_set(args), _run_set(args)
    print("\nA/A: relative difference of two sets of runs, against the "
          "metric's bound")
    print(f"  {'workload':<14} {'metric':<18} {'first':>14} "
          f"{'second':>14} {'diff':>8} {'bound':>6}")
    breaches = 0
    for workload in WORKLOADS:
        for metric in END_TO_END:
            a = first[workload.name]["metrics"][metric.name]["value"]
            b = second[workload.name]["metrics"][metric.name]["value"]
            diff = abs(a - b) / abs(a) if a else math.inf
            flag = ""
            if diff > metric.bound:
                breaches += 1
                flag = "  <-- over"
            print(f"  {workload.name:<14} {metric.name:<18} {a:>14.6g} "
                  f"{b:>14.6g} {diff:>8.4f} {metric.bound:>6.2f}{flag}")
        for result in (first[workload.name], second[workload.name]):
            if not result["correct"]:
                breaches += 1
                print(f"  {workload.name}: output checks failed")
    print(f"\nA/A {'FAILED' if breaches else 'passed'}: {breaches} breach"
          f"{'' if breaches == 1 else 'es'}")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nfbench",
        description="End-to-end and per-layer benchmark of both planes.")
    parser.add_argument("--workload",
                        choices=[w.name for w in WORKLOADS],
                        help="run one workload in this process "
                             "(default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", "--duration", type=float,
                        default=float(RUN_SECONDS), dest="seconds",
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--profile", action="store_true",
                        help="with --trace: cross-check the attribution "
                             "against cProfile")
    parser.add_argument("--aa", action="store_true",
                        help="run the full set twice and compare")
    parser.add_argument("--out", default="",
                        help="directory for result, span and layer files")
    args = parser.parse_args(argv)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.aa:
        return _run_aa(args)
    if args.workload is None:
        results = _run_set(args)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    run = run_traced if args.trace else run_untraced
    extra = {"profile": args.profile} if args.trace else {}
    result, problems = run(args.workload, args.seed, args.seconds,
                           out=args.out, **extra)
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
