"""End-to-end integration invariants across the full stack."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.migration.ffa import FfaMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.migration.precopy import PrecopyMigration
from repro.units import mib
from repro.workloads.hpcc import hpcc_workload
from repro.workloads.synthetic import SequentialWorkload, StridedWorkload

ALL_STRATEGIES = [
    OpenMosixMigration,
    NoPrefetchMigration,
    AmpomMigration,
    FfaMigration,
    PrecopyMigration,
]


@pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
def test_every_strategy_completes_and_accounts_time(strategy_cls):
    w = SequentialWorkload(mib(1), sweeps=2)
    result = ScenarioRuntime(two_node_spec(w, strategy_cls())).execute()[0]
    assert result.run_time > 0
    assert result.budget.total == pytest.approx(
        result.freeze_time + result.run_time, rel=1e-9
    )
    # Compute time is invariant across mechanisms (same trace, same CPU).
    assert result.budget.compute == pytest.approx(w.total_compute_estimate(), rel=1e-9)


@pytest.mark.parametrize("strategy_cls", [NoPrefetchMigration, AmpomMigration])
def test_page_conservation(strategy_cls):
    """Every remote page crosses the wire at most once, and all pages the
    trace touches end up local."""
    w = SequentialWorkload(mib(2), sweeps=1)
    run = ScenarioRuntime(two_node_spec(w, strategy_cls()))
    (result,) = run.execute()
    outcome = run.outcomes[0]
    c = result.counters
    total_pages = w.address_space.total_pages
    fetched = c.pages_demand_fetched + c.pages_prefetched
    assert fetched <= total_pages - outcome.pages_shipped
    # Data region fully mapped at the end.
    data = w.address_space.region("data")
    assert all(
        outcome.residency.is_mapped(vpn)
        for vpn in range(data.start_page, data.end_page)
    )
    # HPT holds exactly the never-transferred pages.
    assert len(outcome.hpt) == total_pages - outcome.pages_shipped - fetched


def test_hpcc_kernels_run_under_every_scheme():
    for kernel in ("DGEMM", "STREAM", "RandomAccess", "FFT"):
        for strategy_cls in (OpenMosixMigration, NoPrefetchMigration, AmpomMigration):
            w = hpcc_workload(kernel, 65, scale=1 / 32)
            result = ScenarioRuntime(two_node_spec(w, strategy_cls())).execute()[0]
            assert result.total_time > 0


def test_multi_stream_workload_multi_pivot_prefetch():
    """Interleaved streams exercise the multi-pivot quota path."""
    w = StridedWorkload(mib(2), streams=3)
    result = ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]
    assert result.counters.pages_prefetched > 0
    nopf = ScenarioRuntime(
        two_node_spec(StridedWorkload(mib(2), streams=3), NoPrefetchMigration())
    ).execute()[0]
    assert result.counters.page_fault_requests < nopf.counters.page_fault_requests / 2


def test_ffa_flush_dependency_slows_early_faults():
    """FFA pays for file-server flushing: a migrant that immediately sweeps
    its memory waits on pages that have not been flushed yet."""
    ffa = ScenarioRuntime(two_node_spec(SequentialWorkload(mib(2)), FfaMigration())).execute()[0]
    nopf = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(2)), NoPrefetchMigration())
    ).execute()[0]
    assert ffa.freeze_time == pytest.approx(nopf.freeze_time, rel=0.05)
    # Demand-paging dominated, like NoPrefetch (stalls on every first touch).
    assert ffa.budget.stall > 0.5 * nopf.budget.stall
    assert ffa.total_time == pytest.approx(nopf.total_time, rel=0.15)


def test_infod_measured_rtt_tracks_shaping():
    """The monitoring daemon's RTT estimate reflects a reshaped link."""
    run = ScenarioRuntime(
        two_node_spec(
            SequentialWorkload(mib(1)),
            AmpomMigration(),
            shaped_bandwidth_bps=0.75e6,
            shaped_latency_s=0.002,
        )
    )
    run.execute()
    infod = run.migrant_infods[0]
    assert infod is not None
    # 2 x 2 ms shaped latency + daemon delay at minimum.
    assert infod.conditions().rtt_s >= 0.004


def test_deterministic_across_runs_full_stack():
    def once():
        w = hpcc_workload("RandomAccess", 65, scale=1 / 32)
        return ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]

    a, b = once(), once()
    assert a.total_time == b.total_time
    assert a.counters.as_dict() == b.counters.as_dict()
