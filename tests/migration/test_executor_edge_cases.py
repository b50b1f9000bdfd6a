"""Edge-case tests for the migrant executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.units import mib
from repro.workloads.replay import ReplayWorkload
from repro.workloads.synthetic import SequentialWorkload


def test_single_page_workload():
    w = ReplayWorkload([0], n_pages=1)
    result = ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]
    # Page 0 of the data region is part of the freeze trio -> no faults.
    assert result.counters.total_faults == 0


def test_single_remote_page():
    w = ReplayWorkload([5], n_pages=8)
    result = ScenarioRuntime(two_node_spec(w, NoPrefetchMigration())).execute()[0]
    assert result.counters.major_faults == 1
    assert result.budget.stall > 0


def test_zero_compute_trace():
    w = ReplayWorkload(list(range(64)), compute=0.0)
    result = ScenarioRuntime(two_node_spec(w, NoPrefetchMigration())).execute()[0]
    assert result.budget.compute == 0.0
    assert result.run_time > 0  # stalls still take time


def test_repeated_single_page_trace():
    """Consecutive repeats of one page: one fault, then pure compute."""
    w = ReplayWorkload([7] * 500, compute=1e-5, n_pages=16)
    result = ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]
    assert result.counters.major_faults == 1
    assert result.budget.compute == pytest.approx(500 * 1e-5)


def test_descending_trace_is_prefetchable_by_score_not_pivots():
    """A strictly descending sweep registers spatial locality (absolute
    distance) but pivots extrapolate forward; prefetching is bounded by
    the fallback. The run must still complete correctly."""
    pages = list(range(511, -1, -1))
    w = ReplayWorkload(pages, compute=1e-5)
    result = ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]
    start = 0
    del start
    assert result.counters.total_faults > 0
    assert result.budget.total == pytest.approx(
        result.freeze_time + result.run_time, rel=1e-9
    )


def test_next_leg_requires_a_preempted_leg():
    from repro.cluster.topology import build_preset
    from repro.errors import MigrationError
    from repro.migration.executor import MigrantExecutor

    runtime = ScenarioRuntime(build_preset("pair", "AMPoM", scale=1 / 32))
    outcome = runtime.measure_freeze()
    migrant = runtime.spec.migrants[0]
    node = runtime.cluster.node(migrant.path[1])
    executor = MigrantExecutor(
        sim=runtime.sim,
        workload=migrant.workload,
        outcome=outcome,
        node=node,
        hardware=runtime.config.hardware,
    )
    result = runtime.sim.run_until_complete(executor.start())
    assert result.run_time > 0.0 and not executor.preempted
    with pytest.raises(MigrationError, match="preempted leg"):
        executor.next_leg(node, None, None)


def test_openmosix_infod_probe_noise_does_not_change_result():
    """openMosix runs attach no infod; result equals a run with one."""
    a, b = (
        ScenarioRuntime(
            two_node_spec(SequentialWorkload(mib(1)), OpenMosixMigration(), with_infod=infod)
        ).execute()[0]
        for infod in (False, True)
    )
    assert a.total_time == b.total_time


def test_very_small_address_space_prefetch_clipped():
    """Prefetch never reaches past the end of the address space."""
    w = ReplayWorkload(list(range(16)), n_pages=16)
    run = ScenarioRuntime(two_node_spec(w, AmpomMigration()))
    (result,) = run.execute()
    limit = w.address_space.total_pages
    assert all(vpn < limit for vpn in run.outcomes[0].residency.mapped_pages())
    assert result.counters.pages_prefetched <= limit


def test_interleaved_chunks_and_syscalls():
    from repro.workloads.base import Syscall

    w = SequentialWorkload(mib(1), sweeps=3, syscall_every_sweep=Syscall(1e-4))
    result = ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]
    assert result.counters.syscalls_forwarded == 3
    assert result.budget.syscall > 3e-4


def test_float_chunk_boundaries_accumulate_exactly():
    """Compute accumulation across chunk boundaries loses no time."""
    rng = np.random.default_rng(1)
    compute = rng.uniform(1e-6, 1e-4, size=1000)
    w = ReplayWorkload(list(range(100)) * 10, compute=compute, chunk_refs=37)
    result = ScenarioRuntime(two_node_spec(w, OpenMosixMigration())).execute()[0]
    assert result.budget.compute == pytest.approx(float(compute.sum()), rel=1e-12)