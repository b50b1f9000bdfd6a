"""Unit tests for the migrant executor's fault handling and accounting."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.config import SimulationConfig
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.units import mib
from repro.workloads.base import Syscall
from repro.workloads.synthetic import (
    AllocatingWorkload,
    SequentialWorkload,
    UniformRandomWorkload,
)


def run(workload, strategy, config=None, **kwargs):
    return ScenarioRuntime(two_node_spec(workload, strategy, config=config, **kwargs)).execute()[0]


class TestOpenMosixExecution:
    def test_no_faults_at_all(self):
        result = run(SequentialWorkload(mib(1)), OpenMosixMigration())
        assert result.counters.total_faults == 0
        assert result.counters.page_fault_requests == 0
        assert result.budget.stall == 0.0

    def test_run_time_equals_compute(self):
        w = SequentialWorkload(mib(1), sweeps=2)
        result = run(w, OpenMosixMigration())
        assert result.run_time == pytest.approx(w.total_compute_estimate())


class TestNoPrefetchExecution:
    def test_every_first_touch_is_a_demand_request(self):
        w = SequentialWorkload(mib(1), sweeps=2)
        result = run(w, NoPrefetchMigration())
        # All data pages except the trio's data page fault exactly once.
        expected = w.n_pages - 1
        assert result.counters.page_fault_requests == expected
        assert result.counters.pages_prefetched == 0

    def test_second_sweep_is_local(self):
        one = run(SequentialWorkload(mib(1), sweeps=1), NoPrefetchMigration())
        two = run(SequentialWorkload(mib(1), sweeps=2), NoPrefetchMigration())
        assert two.counters.page_fault_requests == one.counters.page_fault_requests

    def test_stall_scales_with_faults(self):
        small = run(SequentialWorkload(mib(1)), NoPrefetchMigration())
        large = run(SequentialWorkload(mib(4)), NoPrefetchMigration())
        assert large.budget.stall > small.budget.stall * 2


class TestAmpomExecution:
    def test_prefetching_reduces_demand_requests(self):
        nopf = run(SequentialWorkload(mib(2)), NoPrefetchMigration())
        ampom = run(SequentialWorkload(mib(2)), AmpomMigration())
        assert ampom.counters.page_fault_requests < nopf.counters.page_fault_requests / 5
        assert ampom.counters.pages_prefetched > 0

    def test_all_pages_fetched_exactly_once(self):
        w = SequentialWorkload(mib(2), sweeps=2)
        result = run(w, AmpomMigration())
        c = result.counters
        # Conservation: demand + prefetched = pages that crossed the wire;
        # every touched remote page crossed exactly once.
        assert c.pages_demand_fetched + c.pages_prefetched >= w.n_pages - 1
        assert c.pages_copied == c.pages_demand_fetched + c.pages_prefetched

    def test_analysis_time_charged(self):
        result = run(SequentialWorkload(mib(1)), AmpomMigration())
        assert result.budget.analysis > 0
        assert result.budget.analysis_overhead_fraction < 0.01

    def test_wasted_pages_bounded_for_full_coverage(self):
        result = run(SequentialWorkload(mib(2)), AmpomMigration())
        # Sequential trace touches everything; waste only past the end.
        assert result.wasted_pages <= 2 * SimulationConfig().ampom.max_zone_pages

    def test_random_workload_still_progresses(self):
        w = UniformRandomWorkload(mib(1), n_references=600)
        result = run(w, AmpomMigration())
        assert result.counters.total_faults > 0
        assert result.run_time > 0


class TestTimeAccountingIdentity:
    @pytest.mark.parametrize(
        "strategy_cls", [OpenMosixMigration, NoPrefetchMigration, AmpomMigration]
    )
    def test_wall_time_fully_attributed(self, strategy_cls):
        w = SequentialWorkload(mib(1), sweeps=2)
        result = run(w, strategy_cls())
        wall = result.freeze_time + result.run_time
        assert result.budget.total == pytest.approx(wall, rel=1e-9)


class TestPageCreation:
    def test_created_pages_never_cross_network(self):
        w = AllocatingWorkload(mib(1), fresh_fraction=0.5)
        result = run(w, AmpomMigration())
        c = result.counters
        assert c.create_faults == w.fresh_pages
        # Fresh pages are created locally: only 'old' pages cross the wire.
        assert c.pages_demand_fetched + c.pages_prefetched <= w.old_pages + 80

    def test_creation_with_openmosix(self):
        w = AllocatingWorkload(mib(1), fresh_fraction=0.25)
        result = run(w, OpenMosixMigration())
        assert result.counters.create_faults == w.fresh_pages
        assert result.counters.page_fault_requests == 0


class TestSyscalls:
    def test_forwarded_syscalls_counted_and_charged(self):
        w = SequentialWorkload(
            mib(1), sweeps=2, syscall_every_sweep=Syscall(service_time=0.002)
        )
        result = run(w, NoPrefetchMigration())
        assert result.counters.syscalls_forwarded == 2
        # Round trip + service, twice.
        assert result.budget.syscall > 2 * 0.002

    def test_syscalls_with_openmosix_deputy(self):
        w = SequentialWorkload(
            mib(1), sweeps=1, syscall_every_sweep=Syscall(service_time=0.001)
        )
        result = run(w, OpenMosixMigration())
        assert result.counters.syscalls_forwarded == 1
        assert result.budget.syscall > 0


class TestDeterminism:
    @pytest.mark.parametrize("strategy_cls", [AmpomMigration, NoPrefetchMigration])
    def test_identical_runs_identical_results(self, strategy_cls):
        def once():
            w = UniformRandomWorkload(mib(1), n_references=500, seed=11)
            return run(w, strategy_cls())

        a, b = once(), once()
        assert a.total_time == b.total_time
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.budget.as_dict() == b.budget.as_dict()
