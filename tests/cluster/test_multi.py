"""Concurrent migrants on one home->dest pair (shared link and CPU)."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import (
    DEST,
    HOME,
    MigrantSpec,
    NodeGraph,
    ScenarioSpec,
    two_node_spec,
)
from repro.errors import MigrationError
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload


def workloads(n=3, size_mib=1, sweeps=1):
    return [SequentialWorkload(mib(size_mib), sweeps=sweeps) for _ in range(n)]


def _burst_spec(workloads, strategy, stagger_s=0.0) -> ScenarioSpec:
    """One migrant per workload on home->dest, all sharing ``strategy``,
    the i-th starting at ``i * stagger_s``."""
    migrants = tuple(
        MigrantSpec(w, strategy, start_s=i * stagger_s)
        for i, w in enumerate(workloads)
    )
    return ScenarioSpec(NodeGraph((HOME, DEST)), migrants)


def test_all_migrants_complete():
    runtime = ScenarioRuntime(_burst_spec(workloads(3), AmpomMigration()))
    results = runtime.execute()
    assert len(results) == 3
    assert all(r.run_time > 0 for r in results)
    assert runtime.sim.now >= max(r.total_time for r in results)


def test_single_use():
    runtime = ScenarioRuntime(_burst_spec(workloads(2), AmpomMigration()))
    runtime.execute()
    with pytest.raises(MigrationError):
        runtime.execute()


def test_openmosix_freezes_serialize_on_the_shared_link():
    """Concurrent bulk freezes queue: later migrants freeze longer than a
    lone migrant would."""
    spec = two_node_spec(SequentialWorkload(mib(2)), OpenMosixMigration())
    alone = ScenarioRuntime(spec).execute()[0]
    shared = ScenarioRuntime(_burst_spec(workloads(3, size_mib=2), OpenMosixMigration())).execute()
    assert max(r.freeze_time for r in shared) > alone.freeze_time * 2


def test_contention_slows_everyone_but_preserves_ordering():
    ampom = ScenarioRuntime(_burst_spec(workloads(3), AmpomMigration())).execute()
    nopf = ScenarioRuntime(_burst_spec(workloads(3), NoPrefetchMigration())).execute()
    # AMPoM still beats demand paging under self-inflicted contention.
    assert sum(r.total_time for r in ampom) < sum(r.total_time for r in nopf)


def test_contention_vs_isolation():
    spec = two_node_spec(SequentialWorkload(mib(1)), AmpomMigration())
    alone = ScenarioRuntime(spec).execute()[0]
    shared = ScenarioRuntime(_burst_spec(workloads(3, size_mib=1), AmpomMigration())).execute()
    # Three migrants share 12.5 MB/s; each must be slower than alone.
    assert min(r.total_time for r in shared) > alone.total_time


def test_stagger_offsets_migrations():
    runtime = ScenarioRuntime(_burst_spec(workloads(2), AmpomMigration(), stagger_s=5.0))
    results = runtime.execute()
    # The second migrant cannot finish before its 5 s offset.
    assert runtime.sim.now > 5.0
    assert all(r is not None for r in results)


def test_accounting_identity_per_migrant():
    results = ScenarioRuntime(_burst_spec(workloads(3), AmpomMigration())).execute()
    for r in results:
        assert r.budget.total == pytest.approx(r.freeze_time + r.run_time, rel=1e-9)


def test_cpu_sharing_stretches_compute():
    """Coresident migrants share the destination CPU: wall compute per
    migrant exceeds the lone-run compute.  Long compute phases (50 sweeps)
    guarantee the migrants actually overlap after their serialized
    freezes."""
    spec = two_node_spec(SequentialWorkload(mib(1), sweeps=50), OpenMosixMigration())
    alone = ScenarioRuntime(spec).execute()[0]
    shared = ScenarioRuntime(_burst_spec(workloads(3, sweeps=50), OpenMosixMigration())).execute()
    assert all(r.budget.compute > alone.budget.compute * 1.4 for r in shared)
    # CPU work itself is identical; only the wall time stretches.
    assert alone.budget.compute == pytest.approx(50 * 256 * 2e-5, rel=0.1)


def test_validation():
    with pytest.raises(MigrationError):
        ScenarioSpec(NodeGraph((HOME, DEST)), ())
    with pytest.raises(MigrationError):
        MigrantSpec(SequentialWorkload(mib(1)), AmpomMigration(), start_s=-1.0)
