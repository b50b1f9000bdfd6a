"""The executor's vectorized fast path must be semantically invisible.

The fast path sums a chunk's compute when everything is mapped; the LRU
model disables it (recency must be tracked per reference).  Running the
same all-local workload both ways must produce identical timing.
"""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload, UniformRandomWorkload


def test_openmosix_fast_and_slow_paths_agree():
    fast = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1), sweeps=3), OpenMosixMigration())
    ).execute()[0]
    # A capacity far above the working set never evicts, but forces the
    # per-reference loop.
    slow = ScenarioRuntime(
        two_node_spec(
            SequentialWorkload(mib(1), sweeps=3),
            OpenMosixMigration(),
            capacity_pages=10**6,
        )
    ).execute()[0]
    assert slow.counters.pages_evicted == 0
    assert fast.budget.compute == pytest.approx(slow.budget.compute, rel=1e-12)
    assert fast.total_time == pytest.approx(slow.total_time, rel=1e-12)
    assert fast.counters.total_faults == slow.counters.total_faults == 0


def test_ampom_tail_fast_path_agrees_with_slow_path():
    """Once AMPoM has fetched everything, later sweeps take the fast path;
    forcing the slow path must not change the result."""

    def run(capacity):
        spec = two_node_spec(
            SequentialWorkload(mib(1), sweeps=4),
            AmpomMigration(),
            capacity_pages=capacity,
        )
        return ScenarioRuntime(spec).execute()[0]

    fast = run(None)
    slow = run(10**6)
    assert fast.total_time == pytest.approx(slow.total_time, rel=1e-12)
    assert fast.counters.page_fault_requests == slow.counters.page_fault_requests


def test_random_workload_paths_agree():
    def run(capacity):
        spec = two_node_spec(
            UniformRandomWorkload(mib(1), n_references=2000, seed=3),
            AmpomMigration(),
            capacity_pages=capacity,
        )
        return ScenarioRuntime(spec).execute()[0]

    fast = run(None)
    slow = run(10**6)
    assert fast.total_time == pytest.approx(slow.total_time, rel=1e-12)
    assert fast.counters.as_dict() == {
        **slow.counters.as_dict(),
        "pages_evicted": 0,
    }
