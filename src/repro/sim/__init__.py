"""Discrete-event simulation kernel.

A small, deterministic DES substrate: a heap of ``(time, seq, callback)``
entries (:mod:`repro.sim.events`) under a simulated clock and one run loop
(:mod:`repro.sim.kernel`), generator-based cooperative processes
(:mod:`repro.sim.process`), and seeded randomness helpers
(:mod:`repro.sim.rng`).  Everything else in the package (network, nodes,
migration engines) is built on top of it.
"""

from .events import EventQueue
from .kernel import Simulator
from .process import SimProcess, Timeout
from .rng import child_rng, make_rng

__all__ = [
    "EventQueue",
    "SimProcess",
    "Simulator",
    "Timeout",
    "child_rng",
    "make_rng",
]
