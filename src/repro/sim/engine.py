"""Core event loop of the discrete-event simulator.

The design follows the classic process-interaction style: the simulator
keeps a heap of ``(time, sequence, event)`` tuples and fires event
callbacks in order.  A :class:`Process` wraps a generator; every value
the generator yields must be an :class:`Event` (a :class:`Timeout` or
another :class:`Process` included), and the process resumes when that
event fires.

Time is a ``float`` in **seconds**.  All components of the reproduction
use SI units (seconds, bytes, bits/second) to avoid unit bugs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for invalid simulator usage (e.g. double-firing an event)."""


class Event:
    """A one-shot occurrence processes can wait on.

    Events move through three states: *pending* (created), *triggered*
    (scheduled on the event heap) and *fired* (callbacks executed).
    ``succeed`` and ``fail`` trigger the event immediately; waiting on a
    failed event re-raises its exception inside the waiting process.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._fired = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def ok(self) -> bool:
        """True when the event fired without an exception."""
        return self._fired and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._triggered = True
        self.sim._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._triggered = True
        self.sim._schedule(self, delay=0.0)
        return self

    # -- internal --------------------------------------------------------
    def _fire(self) -> None:
        self._fired = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9f}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # Written so NaN fails too: a NaN clock never passes ``until``.
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._triggered = True
        sim._schedule(self, delay=delay)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields events; the process sleeps until the yielded
    event fires, then resumes with the event's value (or the event's
    exception thrown into it).
    """

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator, got "
                            f"{type(generator).__name__}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current instant.
        Timeout(sim, 0.0).callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            if event._exception is not None:
                next_event = self.generator.throw(event._exception)
            else:
                next_event = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(next_event, Event):
            self.generator.throw(TypeError(
                f"process {self.name!r} yielded non-event "
                f"{next_event!r}"))
            return
        if next_event.fired:
            # Already fired: resume on the next scheduling round to keep
            # FIFO fairness between same-instant processes.
            poke = Event(self.sim)
            poke.callbacks.append(self._resume)
            if next_event._exception is not None:
                poke.fail(next_event._exception)
            else:
                poke.succeed(next_event._value)
        else:
            next_event.callbacks.append(self._resume)


class Simulator:
    """Event-wheel simulator with a virtual clock in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._stopped = False

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- factories -------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._sequence), event))

    def stop(self) -> None:
        """Abort :meth:`run` at the current instant."""
        self._stopped = True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Fire the single next event."""
        when, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        event._fire()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap empties or the clock passes ``until``.

        Returns the simulation time at which the run stopped.  With an
        ``until`` bound the clock is advanced exactly to the bound even
        when the last event fires earlier, so control-loop tests read
        the clock exactly at the bound.
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"until={until!r} is in the past (now={self._now!r})")
        self._stopped = False
        while self._heap and not self._stopped:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                return self._now
            self.step()
        if until is not None and not self._stopped:
            self._now = until
        return self._now
