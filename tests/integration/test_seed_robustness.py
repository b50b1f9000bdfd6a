"""Robustness of the reproduced claims across random seeds.

RandomAccess and FFT traces are seeded; the headline percentages must not
hinge on one lucky stream.
"""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.experiments import figures
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.units import mib
from repro.workloads.randomaccess import RandomAccessWorkload

SCALE = 1.0 / 16.0
SEEDS = (0, 1, 2, 3, 4)


def prevented_pct(kernel: str, mb: int, seed: int) -> float:
    def run(strategy):
        workload = figures.hpcc_workload(kernel, mb, scale=SCALE, seed=seed)
        spec = two_node_spec(workload, strategy, config=figures.scaled_config(SCALE))
        return ScenarioRuntime(spec).execute()[0]

    ampom = run(AmpomMigration())
    nopf = run(NoPrefetchMigration())
    return 100.0 * (
        1 - ampom.counters.page_fault_requests / nopf.counters.page_fault_requests
    )


def test_randomaccess_prevention_stable_across_seeds():
    values = [prevented_pct("RandomAccess", 129, seed) for seed in SEEDS]
    assert all(60.0 < v < 95.0 for v in values), values
    assert max(values) - min(values) < 12.0, values


def test_fft_prevention_stable_across_seeds():
    values = [prevented_pct("FFT", 129, seed) for seed in SEEDS]
    assert all(v > 90.0 for v in values), values
    assert max(values) - min(values) < 5.0, values


def test_randomaccess_total_time_stable_across_seeds():
    totals = []
    for seed in SEEDS:
        w = RandomAccessWorkload(mib(16), seed=seed)
        result = ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]
        totals.append(result.total_time)
    spread = (max(totals) - min(totals)) / min(totals)
    assert spread < 0.05, totals


def test_different_seeds_produce_different_traces():
    a, b = (
        ScenarioRuntime(
            two_node_spec(RandomAccessWorkload(mib(8), seed=seed), NoPrefetchMigration())
        ).execute()[0]
        for seed in (0, 1)
    )
    assert a.total_time != pytest.approx(b.total_time, abs=1e-12) or (
        a.counters.as_dict() != b.counters.as_dict()
    )
