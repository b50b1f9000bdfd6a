"""Extension: concurrent migrants competing for one link (rebalance burst).

A rebalancing event moves several processes at once; their freezes and
paging replies share the home->destination channel and their compute
shares the destination CPU.  This bench migrates four STREAM processes
simultaneously under each scheme.

Finding (beyond the paper's single-migrant evaluation): the burst exposes
a responsiveness/throughput trade-off.  openMosix's serialized bulk
freezes leave the *last* migrant frozen for the sum of all transfers
(~5 s here) but its bulk stream uses the wire most efficiently, giving the
best aggregate makespan once everything is local.  AMPoM keeps every
migrant responsive (worst freeze ~0.07 s) and beats NoPrefetch throughout,
paying the per-page remote-paging overhead on aggregate completion.
"""

from __future__ import annotations

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import DEST, HOME, MigrantSpec, NodeGraph, ScenarioSpec
from repro.experiments import figures
from repro.metrics.report import format_table
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.workloads.hpcc import hpcc_workload

from ._common import emit

N_MIGRANTS = 4
STRATEGIES = {
    "openMosix": OpenMosixMigration(),
    "NoPrefetch": NoPrefetchMigration(),
    "AMPoM": AmpomMigration(),
}


def _run(strategy):
    """The burst's results and its makespan (the last migrant's finish)."""
    migrants = tuple(
        MigrantSpec(hpcc_workload("STREAM", 115, scale=figures.DEFAULT_SCALE), strategy)
        for _ in range(N_MIGRANTS)
    )
    spec = ScenarioSpec(
        NodeGraph((HOME, DEST)), migrants, config=figures.scaled_config(figures.DEFAULT_SCALE)
    )
    runtime = ScenarioRuntime(spec)
    results = runtime.execute()
    return runtime.sim.now, results


def _sweep():
    return {name: _run(strategy) for name, strategy in STRATEGIES.items()}


def bench_multi_migrant(benchmark):
    data = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = []
    for name, (makespan, results) in data.items():
        rows.append(
            [
                name,
                max(r.freeze_time for r in results),
                sum(r.total_time for r in results) / len(results),
                makespan,
            ]
        )
    emit(
        "multi_migrant_burst",
        format_table(
            ["scheme", "worst freeze s", "mean total s", "makespan s"], rows
        ),
    )

    makespan = {name: span for name, (span, _) in data.items()}
    worst_freeze = {
        name: max(r.freeze_time for r in results) for name, (_, results) in data.items()
    }
    # Responsiveness: the last openMosix migrant waits for all the earlier
    # bulk transfers; AMPoM's worst freeze stays near its lone value.
    assert worst_freeze["AMPoM"] < worst_freeze["openMosix"] / 10
    # AMPoM beats demand paging on aggregate completion too.
    assert makespan["AMPoM"] < makespan["NoPrefetch"]
    # Throughput side of the trade-off: bulk streaming wins the makespan
    # when every page is eventually needed (documented in EXPERIMENTS.md).
    assert makespan["openMosix"] < makespan["AMPoM"]
