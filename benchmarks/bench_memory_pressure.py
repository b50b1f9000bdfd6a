"""Extension: destination memory pressure (DESIGN.md section 6).

The paper's largest kernels nominally exceed the Gideon nodes' 512 MB but
its evaluation ignores memory pressure.  With the LRU capacity model the
migrant evicts (writes back) least-recently-used pages; this bench sweeps
the destination RAM against a STREAM migrant and checks that (a) pressure
induces thrashing for every scheme and (b) AMPoM's advantage over
NoPrefetch survives it.
"""

from __future__ import annotations

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.experiments import figures
from repro.metrics.report import format_table
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.workloads.hpcc import hpcc_workload

from ._common import emit

#: Destination RAM as a fraction of the migrant's address space.
CAPACITY_FRACTIONS = (2.0, 1.0, 0.75, 0.5)


def _run(scheme_factory, fraction):
    workload = hpcc_workload("STREAM", 115, scale=figures.DEFAULT_SCALE)
    workload.setup()
    capacity = max(int(workload.address_space.total_pages * fraction), 64)
    workload.address_space = None  # the run re-runs setup()
    spec = two_node_spec(
        hpcc_workload("STREAM", 115, scale=figures.DEFAULT_SCALE),
        scheme_factory(),
        config=figures.scaled_config(figures.DEFAULT_SCALE),
        capacity_pages=capacity,
    )
    return ScenarioRuntime(spec).execute()[0]


def _sweep():
    rows = []
    for fraction in CAPACITY_FRACTIONS:
        ampom = _run(AmpomMigration, fraction)
        nopf = _run(NoPrefetchMigration, fraction)
        rows.append(
            (
                fraction,
                ampom.total_time,
                nopf.total_time,
                ampom.counters.pages_evicted,
                ampom.counters.page_fault_requests,
                nopf.counters.page_fault_requests,
            )
        )
    return rows


def bench_memory_pressure(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "memory_pressure",
        format_table(
            [
                "RAM/addr-space",
                "AMPoM s",
                "NoPrefetch s",
                "AMPoM evictions",
                "AMPoM fault reqs",
                "NoPrefetch fault reqs",
            ],
            rows,
        ),
    )
    by_frac = {f: row for f, *row in rows}
    # Pressure induces evictions and slows both schemes monotonically.
    assert by_frac[2.0][2] == 0  # no evictions with headroom
    assert by_frac[0.5][2] > 0
    assert by_frac[0.5][0] > by_frac[2.0][0]
    # AMPoM keeps its edge under pressure.
    for f, row in by_frac.items():
        assert row[0] < row[1], f
