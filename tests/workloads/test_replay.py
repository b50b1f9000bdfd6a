"""Unit tests for the replay workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.errors import ConfigurationError
from repro.migration.ampom import AmpomMigration
from repro.workloads.base import TraceChunk
from repro.workloads.replay import ReplayWorkload


def test_replays_verbatim():
    trace = [0, 5, 1, 6, 2, 7]
    w = ReplayWorkload(trace, compute=1e-5)
    w.setup()
    start = w.address_space.region("data").start_page
    pages = np.concatenate([c.pages for c in w.trace()])
    assert (pages - start).tolist() == trace


def test_scalar_and_vector_compute():
    w = ReplayWorkload([0, 1, 2], compute=2e-6)
    w.setup()
    assert w.total_compute_estimate() == pytest.approx(6e-6)
    w2 = ReplayWorkload([0, 1, 2], compute=[1e-6, 2e-6, 3e-6])
    w2.setup()
    assert w2.total_compute_estimate() == pytest.approx(6e-6)


def test_region_sized_by_max_page():
    w = ReplayWorkload([0, 99])
    assert w.n_pages == 100
    w2 = ReplayWorkload([0, 99], n_pages=500)
    assert w2.n_pages == 500


def test_chunking():
    w = ReplayWorkload(list(range(100)), chunk_refs=16)
    w.setup()
    chunks = [c for c in w.trace() if isinstance(c, TraceChunk)]
    assert all(len(c) <= 16 for c in chunks)
    assert sum(len(c) for c in chunks) == 100


def test_runs_through_migration():
    w = ReplayWorkload(list(range(256)) * 2, compute=1e-5)
    result = ScenarioRuntime(two_node_spec(w, AmpomMigration())).execute()[0]
    assert result.counters.pages_prefetched > 0
    assert result.run_time > 0


def test_validation():
    with pytest.raises(ConfigurationError):
        ReplayWorkload([])
    with pytest.raises(ConfigurationError):
        ReplayWorkload([-1, 0])
    with pytest.raises(ConfigurationError):
        ReplayWorkload([0, 1], compute=[1e-6])
    with pytest.raises(ConfigurationError):
        ReplayWorkload([0, 1], compute=[-1e-6, 1e-6])
    with pytest.raises(ConfigurationError):
        ReplayWorkload([0, 10], n_pages=5)
