"""Tests for the LRU memory-pressure extension (DESIGN.md section 6)."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload, UniformRandomWorkload


def run(workload, strategy, capacity_pages):
    spec = two_node_spec(workload, strategy, capacity_pages=capacity_pages)
    return ScenarioRuntime(spec).execute()[0]


def test_no_eviction_when_capacity_suffices():
    w = SequentialWorkload(mib(1), sweeps=2)
    result = run(w, AmpomMigration(), capacity_pages=10_000)
    assert result.counters.pages_evicted == 0


def test_thrashing_under_pressure():
    """A resweep of a region larger than RAM re-faults evicted pages."""
    w = SequentialWorkload(mib(1), sweeps=2)
    tight = w.n_pages // 2
    pressured = run(w, NoPrefetchMigration(), capacity_pages=tight)
    roomy = run(SequentialWorkload(mib(1), sweeps=2), NoPrefetchMigration(), 10_000)
    assert pressured.counters.pages_evicted > 0
    # Sweep 2 re-faults what sweep 1 evicted.
    assert (
        pressured.counters.page_fault_requests
        > roomy.counters.page_fault_requests * 1.5
    )
    assert pressured.total_time > roomy.total_time


def test_eviction_restores_remote_fetchability():
    """Evicted pages go back to the HPT and can be served again."""
    w = SequentialWorkload(mib(1), sweeps=3)
    result = run(w, NoPrefetchMigration(), capacity_pages=w.n_pages // 2)
    c = result.counters
    # Pages crossed the wire more times than the address space holds.
    assert c.pages_demand_fetched > w.n_pages


def test_ffa_eviction_writes_back_to_file_server():
    """Regression: under FFA the file server is the backing store, so an
    evicted dirty page must be written back *there* (not to the HPT) and
    be servable again on the next fault.  The fetch-once ``flush_times``
    pop used to raise ``MemoryStateError`` on the re-fault."""
    from repro.migration.ffa import FfaMigration

    w = SequentialWorkload(mib(1), sweeps=2)
    run_obj = ScenarioRuntime(two_node_spec(w, FfaMigration(), capacity_pages=w.n_pages // 2))
    (result,) = run_obj.execute()
    c = result.counters
    assert c.pages_evicted > 0
    # Sweep 2 re-fetched evicted pages from the file server.
    assert c.pages_demand_fetched > w.n_pages
    # The written-back copies live on the file server, not the home node.
    assert all(vpn not in run_obj.outcomes[0].hpt for vpn in range(w.n_pages))


def test_accounting_identity_holds_under_pressure():
    w = SequentialWorkload(mib(1), sweeps=2)
    result = run(w, AmpomMigration(), capacity_pages=w.n_pages // 2)
    assert result.budget.total == pytest.approx(
        result.freeze_time + result.run_time, rel=1e-9
    )


def test_openmosix_sheds_pages_at_resume_when_over_capacity():
    """openMosix maps everything during the freeze; a destination that
    cannot hold it evicts immediately."""
    w = SequentialWorkload(mib(1), sweeps=1)
    result = run(w, OpenMosixMigration(), capacity_pages=w.n_pages // 2)
    assert result.counters.pages_evicted > 0
    # The sweep then re-faults part of the evicted range remotely.
    assert result.counters.page_fault_requests > 0


def test_random_workload_under_pressure_is_deterministic():
    def once():
        w = UniformRandomWorkload(mib(1), n_references=800, seed=5)
        return run(w, AmpomMigration(), capacity_pages=100)

    a, b = once(), once()
    assert a.total_time == b.total_time
    assert a.counters.as_dict() == b.counters.as_dict()


def test_ampom_still_beats_noprefetch_under_pressure():
    capacity = 200
    ampom = run(SequentialWorkload(mib(2), sweeps=2), AmpomMigration(), capacity)
    nopf = run(SequentialWorkload(mib(2), sweeps=2), NoPrefetchMigration(), capacity)
    assert ampom.total_time < nopf.total_time
    assert ampom.counters.page_fault_requests < nopf.counters.page_fault_requests
