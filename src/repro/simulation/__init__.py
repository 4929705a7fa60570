"""Discrete-event simulation kernel.

This package is the substrate everything else in :mod:`repro` runs on: the
wide-area network model, the GridFTP servers, the GDMP daemons, and the mass
storage systems are all coroutine processes scheduled by a single
:class:`~repro.simulation.kernel.Simulator`.

The programming model is generator-based (SimPy-style): a *process* is a
Python generator that yields :class:`~repro.simulation.kernel.Event` objects
and is resumed when those events trigger.

Example
-------
>>> from repro.simulation import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker(sim, "a", 2.0))
>>> _ = sim.spawn(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.simulation.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simulation.randomness import RandomStreams
from repro.simulation.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
]
