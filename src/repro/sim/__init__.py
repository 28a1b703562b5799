"""Discrete-event simulation engine: the control loop's virtual clock.

The package is the clock ``ControlLoop.run_sim`` ticks on, so
time-to-scale and MTTR replay deterministically in tests and examples,
and nothing else.  The dataplane does not run on it; frames are
forwarded synchronously.  The engine is a classic event-wheel design:

* :class:`~repro.sim.engine.Simulator` owns a priority queue of timed
  events and a monotonically advancing virtual clock.
* Processes are plain Python generators that ``yield`` the two
  simulation primitives, :class:`~repro.sim.engine.Timeout` and
  :class:`~repro.sim.engine.Event`, in the style popularised by
  SimPy, but implemented from scratch so the repository has no runtime
  dependencies.
"""

from repro.sim.engine import Event, Process, Simulator, Timeout

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "Timeout",
]
