"""Tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)
    # A NaN delay would turn the clock into NaN, and run(until=...)
    # would then never return.
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    assert sim.peek() == float("inf")


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).callbacks.append(
            lambda ev, d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.timeout(1.0).callbacks.append(
            lambda ev, t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_bound_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).callbacks.append(lambda ev: fired.append(5.0))
    sim.timeout(1.0).callbacks.append(lambda ev: fired.append(1.0))
    sim.run(until=2.0)
    assert fired == [1.0]
    assert sim.now == 2.0


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=0.5)


def test_process_sleeps_and_resumes():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield sim.timeout(1.5)
        trace.append(("middle", sim.now))
        yield sim.timeout(0.5)
        trace.append(("end", sim.now))

    sim.process(worker())
    sim.run()
    assert trace == [("start", 0.0), ("middle", 1.5), ("end", 2.0)]


def test_process_return_value_via_event():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return 42

    process = sim.process(worker())
    sim.run()
    assert process.fired
    assert process.value == 42


def test_process_waits_on_another_process():
    sim = Simulator()
    trace = []

    def child():
        yield sim.timeout(2.0)
        return "done"

    def parent():
        result = yield sim.process(child())
        trace.append((result, sim.now))

    sim.process(parent())
    sim.run()
    assert trace == [("done", 2.0)]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    got = []

    def waiter():
        value = yield gate
        got.append(value)

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert got == ["open"]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_yielding_already_fired_event_resumes():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    got = []

    def waiter():
        value = yield done
        got.append(value)

    sim.process(waiter())
    sim.run()
    assert got == ["early"]


def test_stop_aborts_run():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).callbacks.append(lambda ev: sim.stop())
    sim.timeout(2.0).callbacks.append(lambda ev: fired.append(2.0))
    sim.run()
    assert fired == []
    assert sim.now == 1.0
    sim.run()
    assert fired == [2.0]
