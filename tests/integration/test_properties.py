"""Hypothesis property tests over the full migration stack.

Small randomized workloads are pushed end-to-end through each scheme and
the system-level invariants are asserted: complete time attribution, page
conservation, counter consistency, and scheme dominance relations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.workloads.replay import ReplayWorkload

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_traces(draw):
    """A mixed trace over a small region: sequential runs + random jumps."""
    n_pages = draw(st.integers(min_value=32, max_value=256))
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["seq", "rand", "rev"]))
        length = draw(st.integers(min_value=4, max_value=64))
        start = draw(st.integers(min_value=0, max_value=n_pages - 1))
        if kind == "seq":
            part = [(start + i) % n_pages for i in range(length)]
        elif kind == "rev":
            part = [(start - i) % n_pages for i in range(length)]
        else:
            part = [
                draw(st.integers(min_value=0, max_value=n_pages - 1))
                for _ in range(min(length, 16))
            ]
        parts.extend(part)
    return n_pages, parts


@SLOW
@given(small_traces(), st.sampled_from([AmpomMigration, NoPrefetchMigration]))
def test_invariants_hold_for_arbitrary_traces(trace, strategy_cls):
    n_pages, pages = trace
    workload = ReplayWorkload(pages, compute=2e-5, n_pages=n_pages)
    run = ScenarioRuntime(two_node_spec(workload, strategy_cls()))
    (result,) = run.execute()
    outcome = run.outcomes[0]
    c = result.counters

    # 1. Complete wall-time attribution.
    assert result.budget.total == pytest.approx(
        result.freeze_time + result.run_time, rel=1e-9
    )
    # 2. Counter consistency: every blocking demand fetched one page; every
    #    fetched page is copied in exactly once or still travelling when the
    #    trace ends (prefetches the process never waited for).
    assert c.pages_demand_fetched == c.demand_requests == c.major_faults
    res = outcome.residency
    assert (
        c.pages_copied + res.n_in_flight + res.n_buffered
        == c.pages_fetched_remotely
    )
    # 3. Conservation: nothing crosses the wire twice (no memory pressure).
    total_pages = workload.address_space.total_pages
    assert c.pages_fetched_remotely + outcome.pages_shipped <= total_pages
    assert len(outcome.hpt) == total_pages - outcome.pages_shipped - (
        c.pages_fetched_remotely
    )
    # 4. Every referenced page ended up mapped.
    start = workload.address_space.region("data").start_page
    for vpn in set(pages):
        assert outcome.residency.is_mapped(start + vpn)
    # 5. Compute time equals the trace's CPU demand exactly.
    assert result.budget.compute == pytest.approx(
        workload.total_compute_estimate(), rel=1e-9
    )


@SLOW
@given(small_traces())
def test_ampom_never_requests_more_than_noprefetch(trace):
    """Prefetching can only *reduce* blocking requests, never add them."""
    n_pages, pages = trace

    def run(strategy_cls):
        workload = ReplayWorkload(pages, compute=2e-5, n_pages=n_pages)
        return ScenarioRuntime(two_node_spec(workload, strategy_cls())).execute()[0]

    ampom = run(AmpomMigration)
    noprefetch = run(NoPrefetchMigration)
    assert (
        ampom.counters.page_fault_requests
        <= noprefetch.counters.page_fault_requests
    )


@SLOW
@given(small_traces())
def test_determinism_for_arbitrary_traces(trace):
    n_pages, pages = trace

    def run():
        workload = ReplayWorkload(pages, compute=2e-5, n_pages=n_pages)
        return ScenarioRuntime(two_node_spec(workload, AmpomMigration())).execute()[0]

    a, b = run(), run()
    assert a.total_time == b.total_time
    assert a.counters.as_dict() == b.counters.as_dict()


@SLOW
@given(
    small_traces(),
    st.integers(min_value=16, max_value=64),
)
def test_memory_pressure_invariants(trace, capacity):
    """Under an LRU capacity the resident set never exceeds the limit and
    refetches are consistent with evictions."""
    n_pages, pages = trace
    workload = ReplayWorkload(pages, compute=2e-5, n_pages=n_pages)
    run = ScenarioRuntime(two_node_spec(workload, AmpomMigration(), capacity_pages=capacity))
    (result,) = run.execute()
    res = run.outcomes[0].residency
    assert res.n_mapped <= capacity
    c = result.counters
    # Wire conservation with refetch: fetched = distinct + refetches, and
    # refetches can only happen for evicted pages.
    assert c.pages_fetched_remotely <= (
        workload.address_space.total_pages + c.pages_evicted
    )
    assert result.budget.total == pytest.approx(
        result.freeze_time + result.run_time, rel=1e-9
    )
