"""Discrete-event simulation engine.

The engine supplies virtual time: the control loop
(``ControlLoop.run_sim``) can run as a process on it, so time-to-scale
and MTTR replay deterministically in tests and examples.  The
dataplane does not run on it; frames are forwarded synchronously.  The
engine is a classic event-wheel design:

* :class:`~repro.sim.engine.Simulator` owns a priority queue of timed
  events and a monotonically advancing virtual clock.
* Processes are plain Python generators that ``yield`` simulation
  primitives (:class:`~repro.sim.engine.Timeout`,
  :class:`~repro.sim.engine.Event`, ...), in the style popularised by
  SimPy, but implemented from scratch so the repository has no runtime
  dependencies.
* :mod:`repro.sim.resources` (capacity-limited resources, containers,
  FIFO stores) and :mod:`repro.sim.stats` (counters, rate meters,
  time-weighted statistics) are generic engine primitives; nothing in
  ``src/`` uses them.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import Container, Resource, Store
from repro.sim.stats import Counter, RateMeter, TimeWeightedStat

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Counter",
    "Event",
    "Interrupt",
    "Process",
    "RateMeter",
    "Resource",
    "Simulator",
    "Store",
    "TimeWeightedStat",
    "Timeout",
]
