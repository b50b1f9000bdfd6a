"""Inline clock advances and the touched-page bitmap change no output.

The executor's waits try :meth:`Simulator.try_advance` before yielding a
``Timeout``.  Each test here runs a scenario twice, once as shipped and
once with ``try_advance`` forced to refuse (every wait then goes through
the event heap, as it did before inline advances existed), and requires
identical results, observer calls and telemetry.  The last group pins
``MigrantExecutor.wasted_pages()`` to the set-based ``len(fetched -
touched)`` count it replaced.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.runner import MigrationRun
from repro.cluster.session import ScenarioRuntime
from repro.cluster.sustained import run_sustained
from repro.cluster.topology import build_preset
from repro.config import NodeFaultSpec
from repro.experiments.figures import run_one, scaled_config
from repro.migration.ampom import AmpomMigration
from repro.migration.executor import MigrantExecutor
from repro.obs import Observability
from repro.obs.fleet import FleetGaugeSet
from repro.sim import Simulator, Timeout
from repro.workloads.replay import ReplayWorkload

SCALE = 1 / 32


def _refuse(self, delay):
    Timeout(delay)  # validates the delay exactly as try_advance does
    return False


@pytest.fixture
def event_path(monkeypatch):
    """Call to make every later wait in the test go through the heap."""
    return lambda: monkeypatch.setattr(Simulator, "try_advance", _refuse)


@pytest.mark.parametrize("scheme", ["AMPoM", "NoPrefetch", "openMosix"])
def test_cell_identical_on_event_path(scheme, event_path):
    def cell():
        config = scaled_config(SCALE, seed=3)
        return run_one("RandomAccess", 65, scheme, scale=SCALE, config=config, seed=3)

    inline = cell().to_dict()
    event_path()
    assert cell().to_dict() == inline


def test_lossy_multihop_identical_on_event_path(event_path):
    def run():
        spec = build_preset("three-hop-lossy", scheme="AMPoM", seed=7)
        spec = dataclasses.replace(spec, max_events=250_000)
        return [r.to_dict() for r in ScenarioRuntime(spec).execute()]

    inline = run()
    assert inline[0]["extra"]["hops"] == 2.0
    assert inline[0]["counters"]["retransmits"] > 0
    event_path()
    assert run() == inline


def test_armed_fleet_run_identical_on_event_path(monkeypatch, event_path):
    seen: list[float] = []
    sample = FleetGaugeSet.on_sim_event

    def recording(self, t):
        seen.append(t)
        sample(self, t)

    monkeypatch.setattr(FleetGaugeSet, "on_sim_event", recording)

    def run():
        seen.clear()
        obs = Observability.enabled(trace=False, metrics=False, fleet=True, journeys=True)
        result = run_sustained(build_preset("cluster_32", seed=3), obs=obs)
        telemetry = list(obs.fleet.to_jsonl_lines())
        return result.to_json(), telemetry, list(seen)

    inline = run()
    assert inline[1] and inline[2]
    event_path()
    assert run() == inline


# ----------------------------------------------------------------------
# wasted_pages() against the set-based count
# ----------------------------------------------------------------------
@pytest.fixture
def wasted_calls(monkeypatch):
    """Every ``wasted_pages()`` call as ``(bitmap count, set count)``.

    A shadow set of referenced pages is kept per migrant, keyed by its
    fetched set, which every leg of a multi-hop run shares.
    """
    shadows: dict[int, tuple[set, set]] = {}
    calls: list[tuple[int, int]] = []
    mark = MigrantExecutor._mark_touched
    count = MigrantExecutor.wasted_pages

    def shadow(executor):
        fetched = executor._fetched
        return shadows.setdefault(id(fetched), (fetched, set()))[1]

    def spy_mark(self, pages):
        shadow(self).update(np.unique(pages).tolist())
        mark(self, pages)

    def spy_count(self):
        calls.append((count(self), len(self._fetched - shadow(self))))
        return calls[-1][0]

    monkeypatch.setattr(MigrantExecutor, "_mark_touched", spy_mark)
    monkeypatch.setattr(MigrantExecutor, "wasted_pages", spy_count)
    return calls


def test_wasted_pages_multi_hop_carry(wasted_calls):
    result = ScenarioRuntime(build_preset("three-hop", "AMPoM", scale=SCALE, seed=0)).execute()[0]
    assert result.extra["hops"] == 2.0
    assert wasted_calls == [(result.wasted_pages, result.wasted_pages)]


def test_wasted_pages_killed_migrant(wasted_calls):
    spec = build_preset("pair", "AMPoM", scale=SCALE, seed=0)
    spec.config = spec.config.with_(node_faults=NodeFaultSpec(crash_windows=(("home", 0.3, 10.0),)))
    result = ScenarioRuntime(spec).execute()[0]
    assert result.extra["killed"] == 1.0
    assert result.wasted_pages > 0
    assert wasted_calls == [(result.wasted_pages, result.wasted_pages)]


def test_wasted_pages_replay_workload(wasted_calls):
    rng = np.random.default_rng(11)
    workload = ReplayWorkload(rng.integers(0, 4096, size=20_000), n_pages=8192, chunk_refs=1024)
    result = MigrationRun(workload, AmpomMigration()).execute()
    assert result.wasted_pages > 0
    assert wasted_calls == [(result.wasted_pages, result.wasted_pages)]


def test_touched_bitmap_grows_past_the_address_space():
    executor = MigrantExecutor.__new__(MigrantExecutor)  # just the bitmap state
    executor.track_touched = True
    executor._touched = np.zeros(4, dtype=bool)
    executor._fetched = {2, 9, 40}
    executor._mark_touched(np.array([1, 2], dtype=np.int64))
    executor._mark_touched(np.array([2, 9], dtype=np.int64))
    assert executor._touched.size >= 10
    assert np.flatnonzero(executor._touched).tolist() == [1, 2, 9]
    assert executor.wasted_pages() == 1  # page 40 lies past the bitmap
