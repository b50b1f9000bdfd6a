"""Unit tests for the event heap: entries fire in ``(time, seq)`` order."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import EventQueue


def _firing_times(times) -> list[float]:
    """Push one callback per time and return the clock at each firing."""
    sim = Simulator()
    fired: list[float] = []
    for t in times:
        sim._queue.push(t, lambda: fired.append(sim.now))
    sim.run()
    return fired


def test_push_pop_single():
    sim = Simulator()
    fired = []
    sim._queue.push(1.0, lambda: fired.append(("a", sim.now)))
    sim.run()
    assert fired == [("a", 1.0)]
    assert sim.pending_events == 0


def test_pop_orders_by_time():
    assert _firing_times([3.0, 1.0, 2.0]) == [1.0, 2.0, 3.0]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    sim._queue.push(1.0, lambda: order.append("first"))
    sim._queue.push_callback(1.0, lambda: order.append("second"))
    sim._queue.push(1.0, lambda: order.append("third"))
    sim.run()
    assert order == ["first", "second", "third"]


def test_len_counts_entries():
    q = EventQueue()
    assert len(q) == 0
    q.push(1.0, lambda: None)
    q.push_callback(2.0, lambda: None)
    assert len(q) == 2


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_pop_order_is_sorted(times):
    assert _firing_times(times) == sorted(times)
