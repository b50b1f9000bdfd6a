"""Related-work comparison: AMPoM vs FFA (file server) vs V-system pre-copy.

Section 6 positions AMPoM against the classic mechanisms; this benchmark
puts the implemented baselines side by side on one workload: freeze time,
total time, and the network traffic each moves.
"""

from __future__ import annotations

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.experiments import figures
from repro.metrics.report import format_table
from repro.migration.ampom import AmpomMigration
from repro.migration.ffa import FfaMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.migration.precopy import PrecopyMigration
from repro.units import mib
from repro.workloads.hpcc import hpcc_workload

from ._common import emit

STRATEGIES = {
    "openMosix": OpenMosixMigration,
    "Precopy": lambda: PrecopyMigration(dirty_rate_pps=2000.0),
    "FFA": FfaMigration,
    "NoPrefetch": NoPrefetchMigration,
    "AMPoM": AmpomMigration,
}


def _sweep():
    rows = []
    for name, factory in STRATEGIES.items():
        workload = hpcc_workload("STREAM", 230, scale=figures.DEFAULT_SCALE)
        runtime = ScenarioRuntime(
            two_node_spec(
                workload, factory(), config=figures.scaled_config(figures.DEFAULT_SCALE)
            )
        )
        (r,) = runtime.execute()
        moved = runtime.outcomes[0].bytes_transferred / mib(1)
        rows.append((name, r.freeze_time, r.total_time, moved, r.extra))
    return rows


def bench_related_work(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "related_work_comparison",
        format_table(
            ["strategy", "freeze s", "total s", "freeze MiB"],
            [r[:4] for r in rows],
        ),
    )
    data = {name: (freeze, total) for name, freeze, total, _, _ in rows}
    # Freeze ordering: the lightweight schemes beat the copy-everything ones.
    assert data["NoPrefetch"][0] < data["AMPoM"][0] < data["openMosix"][0]
    assert data["Precopy"][0] < data["openMosix"][0]
    # AMPoM's total beats the demand-paging baselines.
    assert data["AMPoM"][1] < data["NoPrefetch"][1]
    assert data["AMPoM"][1] < data["FFA"][1]
