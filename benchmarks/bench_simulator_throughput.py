"""Simulator throughput: page references and faults processed per second.

Unlike the figure benchmarks (pedantic single-shot regenerations), these
are conventional pytest-benchmark measurements with multiple rounds —
they track the performance of the simulation engine itself so regressions
in the executor's hot path show up here.
"""

from __future__ import annotations

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload, UniformRandomWorkload


def bench_throughput_local_fast_path(benchmark):
    """openMosix execution: every chunk takes the vectorized local path."""

    def run():
        w = SequentialWorkload(mib(8), sweeps=4)
        return ScenarioRuntime(two_node_spec(w, OpenMosixMigration())).execute()[0]

    result = benchmark(run)
    assert result.counters.total_faults == 0


def bench_throughput_demand_paging(benchmark):
    """NoPrefetch execution: one blocking fault per page."""

    def run():
        w = SequentialWorkload(mib(4))
        return ScenarioRuntime(two_node_spec(w, NoPrefetchMigration())).execute()[0]

    result = benchmark(run)
    assert result.counters.page_fault_requests > 500


def bench_throughput_ampom_pipeline(benchmark):
    """AMPoM execution: analysis on every fault, deep prefetch pipeline."""

    def run():
        w = SequentialWorkload(mib(4), sweeps=2)
        return ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]

    result = benchmark(run)
    assert result.counters.pages_prefetched > 0


def bench_throughput_random_faults(benchmark):
    """Worst case for the fault path: random pages, no fast-path relief."""

    def run():
        w = UniformRandomWorkload(mib(8), n_references=8192)
        return ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]

    result = benchmark(run)
    # Prefetching covers the table quickly; a few hundred faults remain.
    assert result.counters.total_faults > 100
