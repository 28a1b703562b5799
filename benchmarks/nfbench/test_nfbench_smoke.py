"""Smoke test of nfbench (tier-1, a few seconds in all).

Each workload runs once untraced and once traced at its small sizes:
the declared metric names must come out, every value finite, every
output check passing.  The declarations must match ``BENCHMARK.json``
and the contract's name and unit alphabets, and one seed must always
generate the same input bytes.
"""

import json
import math
import os
import re

import pytest

from . import gen
from .cli import run_traced, run_untraced
from .spec import END_TO_END, LAYER_METRICS, WORKLOADS, benchmark_json

_NAMES = [workload.name for workload in WORKLOADS]
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _check(result: dict, declared) -> None:
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) and set(metrics) == {m.name for m in declared}
    units = {m.name: m.unit for m in declared}
    for name, row in metrics.items():
        assert row["unit"] == units[name]
        assert math.isfinite(row["value"]), name


@pytest.mark.parametrize("name", _NAMES)
def test_untraced_run_emits_end_to_end_metrics(name, capsys):
    result, problems = run_untraced(name, seed=3, seconds=0.3, small=True)
    assert problems == []
    _check(result, END_TO_END)
    assert all(row["value"] > 0 for row in result["metrics"].values())
    assert "op_tail_us" in capsys.readouterr().out  # reported-only block


@pytest.mark.parametrize("name", _NAMES)
def test_traced_run_emits_layer_metrics(name):
    result, problems = run_traced(name, seed=3, seconds=0.3, small=True)
    assert problems == []
    _check(result, LAYER_METRICS)
    value = {key: row["value"] for key, row in result["metrics"].items()}
    # Each workload loads the layer it was chosen for.
    if name == "switch-fast":
        assert value["fusion.dispatch_hit_share"] == 1.0
        assert value["net.parse_calls_per_frame"] == 0
    elif name == "switch-mixed":
        assert 0 < value["fusion.dispatch_hit_share"] < 1
        assert value["state.inserted"] > 0
        assert value["flowtable.lookup_ns"] > 0
    elif name == "node-nat":
        assert value["datapath.perframe_share"] >= 0.5
        assert value["linuxnet.conntrack_entries"] > 0
    else:
        assert value["rest.socket_overhead_ms.PUT"] != 0
        assert value["reconciler.step_us.reconfigure"] > 0


def test_shims_leave_the_program_as_they_found_it():
    from repro.switch.datapath import Datapath
    from repro.switch import flowtable
    from repro.switch.actions import compile_actions
    before = (Datapath.process_batch_from, flowtable.compile_actions)
    run_traced("switch-fast", seed=3, seconds=0.1, small=True)
    assert (Datapath.process_batch_from,
            flowtable.compile_actions) == before
    assert flowtable.compile_actions is compile_actions


def test_declarations_match_benchmark_json_and_the_contract():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == benchmark_json()
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = [w.name for w in WORKLOADS] \
        + [m.name for m in END_TO_END + LAYER_METRICS]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m.unit) for m in END_TO_END + LAYER_METRICS)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert all(0 < m.bound <= 0.10 for m in END_TO_END)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END)
    assert len(LAYER_METRICS) <= 128


@pytest.mark.parametrize("inputs", [
    lambda seed: gen.SwitchFastInputs(seed, 128, 32),
    lambda seed: gen.SwitchMixedInputs(seed, 128, 32),
    lambda seed: gen.NatInputs(seed, 2, 32),
    lambda seed: gen.ChurnInputs(seed, 8, 4),
])
def test_one_seed_always_generates_the_same_bytes(inputs):
    assert inputs(7).fingerprint() == inputs(7).fingerprint()
    assert inputs(7).fingerprint() != inputs(8).fingerprint()
