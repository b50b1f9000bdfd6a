"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Timeout


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_advances_clock(sim):
    fired = []
    sim.schedule(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule_at(4.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4.0]


def test_schedule_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_events_scheduled_during_run_fire(sim):
    fired = []

    def outer():
        sim.schedule(1.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["inner"]
    assert sim.now == 2.0


def test_max_events_guard(sim):
    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=10)


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_run_until_complete_returns_process_result(sim):
    def proc():
        yield Timeout(3.0)
        return "done"

    p = sim.spawn(proc())
    assert sim.run_until_complete(p) == "done"
    assert sim.now == 3.0


def test_run_until_complete_detects_deadlock(sim):
    from repro.sim import Completion

    cond = Completion(sim)

    def proc():
        yield cond  # never triggered

    p = sim.spawn(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_run_until_complete_propagates_errors(sim):
    def proc():
        yield Timeout(1.0)
        raise ValueError("boom")

    p = sim.spawn(proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_complete(p)
    # The raised error's traceback holds the process, so the process no
    # longer holds the error.
    assert p.finished and p.error is None


def test_deterministic_ordering_of_simultaneous_events(sim):
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# nested run loops
# ----------------------------------------------------------------------
def test_run_inside_run_until_complete_raises(sim):
    sim.schedule(5.0, lambda: None)

    def proc():
        yield Timeout(1.0)
        sim.run()

    p = sim.spawn(proc())
    with pytest.raises(SimulationError, match="nested"):
        sim.run_until_complete(p)
    assert sim.now == 1.0  # the inner loop never moved the clock


def test_run_until_complete_inside_run_raises(sim):
    def idle():
        yield Timeout(5.0)

    inner = sim.spawn(idle())
    sim.schedule(1.0, lambda: sim.run_until_complete(inner))
    with pytest.raises(SimulationError, match="nested"):
        sim.run()
    assert sim.now == 1.0
    assert not inner.finished


def test_loop_guard_released_after_error(sim):
    def spin():
        while True:
            yield Timeout(1.0)

    with pytest.raises(SimulationError, match="max_events"):
        sim.run_until_complete(sim.spawn(spin()), max_events=3)
    sim.run(until=5.0)  # not mistaken for a nested loop
    assert sim.now == 5.0


# ----------------------------------------------------------------------
# inline advances (Simulator.try_advance)
# ----------------------------------------------------------------------
def test_try_advance_refuses_on_tie_and_earlier_entry(sim):
    seen = []

    def proc():
        sim.schedule(1.0, lambda: None)
        seen.append(sim.try_advance(1.0))  # tie: the entry's seq is smaller
        seen.append(sim.try_advance(2.0))  # the entry is due first
        seen.append(sim.now)
        seen.append(sim.try_advance(0.5))  # strictly earlier: inline
        seen.append(sim.now)
        yield Timeout(0.0)

    sim.run_until_complete(sim.spawn(proc()))
    assert seen == [False, False, 0.0, True, 0.5]


def test_try_advance_refuses_on_cancelled_entry(sim):
    seen = []

    def proc():
        sim.schedule(1.0, lambda: None).cancel()
        seen.append(sim.try_advance(1.5))
        yield Timeout(0.0)

    sim.run_until_complete(sim.spawn(proc()))
    assert seen == [False]


def test_try_advance_refuses_outside_run_loop(sim):
    assert sim.try_advance(1.0) is False
    assert sim.now == 0.0
    ticks = []

    def proc():
        for _ in range(3):
            if not sim.try_advance(1.0):
                yield Timeout(1.0)
            ticks.append(sim.now)

    p = sim.spawn(proc())
    fired = 0
    while sim.step():
        fired += 1
        assert ticks == [float(t) for t in range(1, fired)]
    assert fired == 4 and p.finished


def test_try_advance_never_crosses_run_until(sim):
    ticks = []

    def proc():
        for _ in range(10):
            if not sim.try_advance(1.0):
                yield Timeout(1.0)
            ticks.append(sim.now)

    sim.spawn(proc())
    sim.run(until=2.5)
    assert ticks == [1.0, 2.0]
    assert sim.now == 2.5
    sim.run(until=4.0)  # an advance may land exactly on the bound
    assert ticks == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 4.0


@pytest.mark.parametrize("delay", [-1.0, float("inf"), float("nan")])
def test_try_advance_rejects_invalid_delay(sim, delay):
    with pytest.raises(SimulationError, match="finite and non-negative"):
        sim.try_advance(delay)
    seen = []

    def proc():
        try:
            sim.try_advance(delay)
        except SimulationError as exc:
            seen.append(exc)
        yield Timeout(0.0)

    sim.run_until_complete(sim.spawn(proc()))
    assert len(seen) == 1


def _observed_run(advance: bool) -> tuple[list, list, float]:
    sim = Simulator()
    first: list[float] = []
    second: list[float] = []
    sim.add_observer(first.append)
    sim.add_observer(second.append)
    inline = []

    def proc():
        for dt in (1.0, 0.5, 0.25):
            if advance and sim.try_advance(dt):
                inline.append(dt)
            else:
                yield Timeout(dt)
        sim.schedule(1.0, lambda: None)
        if not (advance and sim.try_advance(2.0)):  # refused: entry at 2.75
            yield Timeout(2.0)

    sim.run_until_complete(sim.spawn(proc()))
    assert first == second
    return first, inline, sim.now


def test_inline_advance_calls_each_observer_once_with_pre_advance_clock():
    times, inline, end = _observed_run(advance=True)
    assert inline == [1.0, 0.5, 0.25]
    # Each advance reports the clock it left; the loop reports the clock
    # the callback ended at.  The event path reports the same sequence.
    assert times == [0.0, 1.0, 1.5, 1.75, 2.75, 3.75]
    assert _observed_run(advance=False) == (times, [], end)


def test_inline_advances_count_toward_max_events():
    def spin(sim):  # bounded, so a budget leak fails instead of hanging
        for _ in range(1000):
            if not sim.try_advance(1.0):
                yield Timeout(1.0)

    inline_sim = Simulator()
    p = inline_sim.spawn(spin(inline_sim))
    with pytest.raises(SimulationError, match="max_events"):
        inline_sim.run_until_complete(p, max_events=10)

    def spin_events(sim):
        for _ in range(1000):
            yield Timeout(1.0)

    event_sim = Simulator()
    q = event_sim.spawn(spin_events(event_sim))
    with pytest.raises(SimulationError, match="max_events"):
        event_sim.run_until_complete(q, max_events=10)
    assert inline_sim.now == event_sim.now == 9.0

    run_sim = Simulator()
    run_sim.spawn(spin(run_sim))
    with pytest.raises(SimulationError, match="max_events"):
        run_sim.run(max_events=10)
    assert run_sim.now == 9.0


# ----------------------------------------------------------------------
# close(): the owner's end of a run
# ----------------------------------------------------------------------
class _Probe:
    """An observer that can be weakly referenced."""

    def __call__(self, t: float) -> None:
        pass


def test_close_keeps_the_clock_and_drops_events_and_observers(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    probe = _Probe()
    sim.add_observer(probe)
    observer = weakref.ref(probe)
    del probe
    sim.run(until=2.0)
    assert sim.pending_events == 1
    sim.close()
    assert sim.now == 2.0
    assert sim.pending_events == 0
    assert observer() is None  # the simulator no longer holds it
    sim.close()  # closing again does nothing
    assert sim.now == 2.0


def test_close_finalizes_a_suspended_process(sim):
    finalized = []

    def waiter():
        try:
            yield Timeout(10.0)
        finally:
            finalized.append(sim.now)

    sim.spawn(waiter())  # only its pending wake-up holds the process
    sim.run(until=1.0)
    assert finalized == []
    sim.close()
    assert finalized == [1.0]


@pytest.mark.parametrize(
    "call",
    [
        lambda sim, proc: sim.run(),
        lambda sim, proc: sim.run(until=5.0),
        lambda sim, proc: sim.run_until_complete(proc),
        lambda sim, proc: sim.step(),
    ],
    ids=["run", "run-until", "run_until_complete", "step"],
)
def test_a_closed_simulator_refuses_to_run(sim, call):
    def proc():
        yield Timeout(1.0)

    p = sim.spawn(proc())
    sim.close()
    with pytest.raises(SimulationError, match="closed"):
        call(sim, p)
    assert sim.now == 0.0 and not p.finished


def test_close_inside_the_run_loop_raises(sim):
    errors = []

    def close_now():
        try:
            sim.close()
        except SimulationError as exc:
            errors.append(str(exc))

    sim.schedule(1.0, close_now)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert errors == ["cannot close a simulator inside its run loop"]
    assert sim.now == 2.0
