"""Unit tests for generator-based cooperative processes."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Timeout


def test_timeout_resumes_later(sim):
    log = []

    def proc():
        log.append(("start", sim.now))
        yield Timeout(2.0)
        log.append(("end", sim.now))

    sim.spawn(proc())
    sim.run()
    assert log == [("start", 0.0), ("end", 2.0)]


def test_timeout_negative_raises():
    with pytest.raises(SimulationError):
        Timeout(-0.1)


@pytest.mark.parametrize("delay", [float("inf"), float("nan")])
def test_timeout_non_finite_raises(delay):
    # An infinite wait would park the process forever; NaN has no order.
    with pytest.raises(SimulationError, match="finite"):
        Timeout(delay)


def test_return_value_captured(sim):
    def proc():
        yield Timeout(1.0)
        return 42

    p = sim.spawn(proc())
    sim.run()
    assert p.finished
    assert p.result == 42


def test_exception_captured(sim):
    def proc():
        yield Timeout(1.0)
        raise RuntimeError("bad")

    p = sim.spawn(proc())
    sim.run()
    assert p.finished
    assert isinstance(p.error, RuntimeError)


def test_join_another_process(sim):
    def child():
        yield Timeout(3.0)
        return "child-result"

    def parent():
        proc = sim.spawn(child(), name="child")
        result = yield proc
        return ("parent-saw", result, sim.now)

    p = sim.spawn(parent())
    sim.run()
    assert p.result == ("parent-saw", "child-result", 3.0)


def test_join_finished_process(sim):
    def child():
        return "instant"
        yield  # pragma: no cover

    child_proc = sim.spawn(child())
    sim.run()

    def parent():
        result = yield child_proc
        return result

    p = sim.spawn(parent())
    sim.run()
    assert p.result == "instant"


def test_yield_unsupported_condition_errors(sim):
    def proc():
        yield "nonsense"

    p = sim.spawn(proc())
    sim.run()
    assert isinstance(p.error, SimulationError)


def test_interrupt_stops_process(sim):
    log = []

    def proc():
        while True:
            yield Timeout(1.0)
            log.append(sim.now)

    p = sim.spawn(proc())
    sim.schedule(2.5, p.interrupt)
    sim.run()
    assert log == [1.0, 2.0]
    assert p.finished


def test_two_processes_interleave(sim):
    log = []

    def ticker(name, period):
        for _ in range(3):
            yield Timeout(period)
            log.append((name, sim.now))

    sim.spawn(ticker("fast", 1.0))
    sim.spawn(ticker("slow", 2.0))
    sim.run()
    # At t=2.0 both are due; the slow ticker's event was scheduled earlier
    # (at t=0) so insertion order puts it first — determinism, not priority.
    assert log == [
        ("fast", 1.0),
        ("slow", 2.0),
        ("fast", 2.0),
        ("fast", 3.0),
        ("slow", 4.0),
        ("slow", 6.0),
    ]
