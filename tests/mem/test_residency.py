"""Unit and property tests for the residency state machine."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryStateError
from repro.mem.residency import ResidencyTracker


def make(remote=range(10), mapped=()):
    return ResidencyTracker(remote_pages=remote, mapped_pages=mapped)


def test_initial_state():
    res = make(remote=[1, 2], mapped=[0])
    assert res.mapped_pages() == [0]
    assert res.remote == frozenset({1, 2})
    assert res.n_remote == 2 and res.n_in_flight == 0 and res.n_buffered == 0


def test_overlapping_mapped_and_remote_rejected():
    with pytest.raises(MemoryStateError):
        ResidencyTracker(remote_pages=[1], mapped_pages=[1])


def test_fetch_lifecycle():
    res = make()
    res.start_fetch(3, arrival=1.0)
    assert res.is_local_or_pending(3)
    assert not res.is_remote(3)
    assert res.arrival_time(3) == 1.0
    assert res.absorb_arrivals(0.5) == 0
    assert res.absorb_arrivals(1.0) == 1
    assert 3 in res.buffered
    assert res.map_buffered() == [3]
    assert res.is_mapped(3)


def test_fetch_non_remote_rejected():
    res = make(remote=[1], mapped=[0])
    with pytest.raises(MemoryStateError):
        res.start_fetch(0, 1.0)
    res.start_fetch(1, 1.0)
    with pytest.raises(MemoryStateError):
        res.start_fetch(1, 2.0)


def test_arrival_time_unknown_page():
    with pytest.raises(MemoryStateError):
        make().arrival_time(3)


def test_absorb_in_arrival_order():
    res = make()
    res.start_fetch(5, arrival=2.0)
    res.start_fetch(6, arrival=1.0)
    assert res.absorb_arrivals(1.5) == 1
    assert res.buffered == frozenset({6})
    assert res.absorb_arrivals(2.0) == 1
    assert res.buffered == frozenset({5, 6})


def test_map_created():
    res = make(remote=[1])
    res.map_created(50)
    assert res.is_mapped(50)
    with pytest.raises(MemoryStateError):
        res.map_created(50)
    with pytest.raises(MemoryStateError):
        res.map_created(1)  # still remote


def test_unmap_returns_page_to_remote():
    res = make(remote=[], mapped=[7])
    res.unmap(7)
    assert res.is_remote(7)
    with pytest.raises(MemoryStateError):
        res.unmap(7)


@given(
    st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=50),
    st.data(),
)
def test_states_are_disjoint_invariant(remote_pages, data):
    """Every page is in exactly one state at every step."""
    res = ResidencyTracker(remote_pages=remote_pages)
    universe = set(remote_pages)
    clock = 0.0
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        action = data.draw(st.sampled_from(["fetch", "absorb", "map"]))
        if action == "fetch" and res.n_remote:
            vpn = data.draw(st.sampled_from(sorted(res.remote)))
            clock += data.draw(st.floats(min_value=0, max_value=1))
            res.start_fetch(vpn, arrival=clock + 0.5)
        elif action == "absorb":
            clock += data.draw(st.floats(min_value=0, max_value=2))
            res.absorb_arrivals(clock)
        elif action == "map":
            res.map_buffered()
        states = [set(res.mapped_pages()), set(res.buffered), set(res.in_flight), set(res.remote)]
        assert set().union(*states) == universe
        total = sum(len(s) for s in states)
        assert total == len(universe)  # pairwise disjoint
