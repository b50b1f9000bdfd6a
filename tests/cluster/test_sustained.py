"""Determinism-at-scale tests for the sustained-load driver.

Everything here pins the same property from different angles: a sustained
run is a pure function of (spec, seed) — byte-identical across repeats,
across ``parallel_map`` fan-out widths, and per policy.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import pytest

from repro.cluster.loadgen import ArrivalSpec
from repro.cluster.parallel import parallel_map
from repro.cluster.policy import POLICIES
from repro.cluster.sustained import SustainedLoadDriver, run_sustained
from repro.cluster.topology import NodeGraph, SustainedSpec, build_preset
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.units import mib


def _small_spec(policy="threshold"):
    """A 4-node sustained scenario small enough for per-policy sweeps."""
    arrivals = ArrivalSpec(
        rate_hz=0.5,
        horizon_s=4.0,
        mean_lifetime_s=1.5,
        max_lifetime_s=5.0,
        memory_bytes_choices=(mib(1) // 4, mib(1) // 2),
        hotspot=("a",),
        hotspot_rate_hz=3.0,
    )
    return (
        NodeGraph(("a", "b", "c", "d")),
        SustainedSpec(arrivals=arrivals, policy=policy),
    )


def _run_small(policy="threshold", seed=5):
    graph, sustained = _small_spec(policy)
    config = SimulationConfig(seed=seed)
    return SustainedLoadDriver(graph, sustained, config=config).execute()


def _cluster_32_json(seed: int) -> str:
    """Module-level so ``parallel_map`` can pickle it into fork workers."""
    return run_sustained(build_preset("cluster_32", seed=seed)).to_json()


# ----------------------------------------------------------------------
# byte-identity
# ----------------------------------------------------------------------
def test_cluster_32_run_byte_identical_across_repeats():
    assert _cluster_32_json(7) == _cluster_32_json(7)


def test_cluster_32_sequential_matches_forked():
    """The same seeded runs serialize identically whether executed in
    this process or fanned out across fork workers."""
    seeds = [7, 7]
    sequential = parallel_map(_cluster_32_json, seeds, jobs=1)
    forked = parallel_map(_cluster_32_json, seeds, jobs=2)
    assert sequential == forked
    assert sequential[0] == sequential[1]


def test_different_seeds_draw_different_streams():
    assert _cluster_32_json(7) != _cluster_32_json(8)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policy_decision_log_deterministic_per_seed(policy):
    first = _run_small(policy)
    second = _run_small(policy)
    assert first.report.decisions == second.report.decisions
    assert first.to_json() == second.to_json()


# ----------------------------------------------------------------------
# report shape + plumbing
# ----------------------------------------------------------------------
def test_report_reflects_spec_and_stream():
    res = _run_small("threshold", seed=5)
    report = res.report
    assert report.nodes == 4
    assert report.policy == "threshold"
    assert report.seed == 5
    assert report.arrivals > 0
    assert report.completed == report.arrivals
    assert report.makespan > 0
    assert report.migrations == len(report.decisions)
    assert report.utilization, "the sampler must record at least one tick"
    times = [s.time for s in report.utilization]
    assert times == sorted(times)
    # Cumulative migration counts never decrease.
    migs = [s.migrations for s in report.utilization]
    assert all(b >= a for a, b in zip(migs, migs[1:]))


def test_executed_migrants_start_where_they_arrived():
    """Phase 2 executes every decided move: each migrant leaves its
    arrival node for its first decision's destination at that decision's
    time, and each yields one completed result."""
    graph, sustained = _small_spec()
    driver = SustainedLoadDriver(graph, sustained, config=SimulationConfig(seed=5))
    drive = driver.execute().drive
    assert drive.migrants, "the hotspot never triggered a migration"
    assert len(drive.results) == len(drive.migrants)
    first = {}
    for decision in drive.decisions:
        first.setdefault(decision.task, decision)
    for migrant, result in zip(drive.migrants, drive.results):
        arrival = driver.arrivals[int(migrant.name.removeprefix("task-"))]
        assert migrant.path[0] == arrival.node
        assert migrant.path[1] == first[migrant.name].dst
        assert migrant.start_s == first[migrant.name].time
        assert result.total_time > 0.0


def test_policy_override_changes_behavior():
    """Swapping the policy on an identical spec+seed changes the decision
    log (threshold balances outward; defrag drains inward)."""
    threshold = _run_small("threshold")
    defrag = _run_small("defrag")
    assert threshold.report.decisions != defrag.report.decisions


def test_execute_jobs_keyword_is_sequential_only():
    """``execute(jobs=1)`` pins the one sequential path; no other width
    exists, so any other value is refused."""
    spec = build_preset("cluster_32", seed=3)

    def driver():
        return SustainedLoadDriver(spec.graph, spec.sustained, config=spec.config)

    assert driver().execute(jobs=1).to_json() == driver().execute().to_json()
    with pytest.raises(ConfigurationError, match="jobs"):
        driver().execute(jobs=2)


def test_run_sustained_requires_sustained_section():
    spec = build_preset("pair")
    with pytest.raises(ConfigurationError):
        run_sustained(spec)


def test_driver_requires_two_worker_nodes():
    from repro.cluster.topology import FILE_SERVER

    _, sustained = _small_spec()
    with pytest.raises(ConfigurationError):
        SustainedLoadDriver(NodeGraph(("a", FILE_SERVER)), sustained)


def test_driver_rejects_empty_stream():
    graph, sustained = _small_spec()
    empty = dataclasses.replace(
        sustained,
        arrivals=ArrivalSpec(rate_hz=0.0, horizon_s=1.0),
    )
    with pytest.raises(ConfigurationError):
        SustainedLoadDriver(graph, empty)


@pytest.mark.parametrize(
    "field", ["balance_interval_s", "gossip_interval_s", "sample_interval_s"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_sustained_spec_rejects_degenerate_intervals(field, value):
    """A NaN or infinite interval passes a plain ``<= 0`` check and then
    kills the daemon that waits on it, inside a process nothing awaits:
    the run would still complete, with no migrations or a single sample."""
    _, sustained = _small_spec()
    with pytest.raises(ConfigurationError, match=field):
        dataclasses.replace(sustained, **{field: value})


def test_finished_run_is_not_reachable_from_its_telemetry():
    """The fleet collector holds samples, never a hook into the
    SustainedLoadDriver, so a caller holding the Observability bundle
    does not keep the run's driver, scheduler and simulations alive, and
    reference counting alone frees them: the cyclic collector stays off."""
    graph, sustained = _small_spec()
    obs = Observability.enabled(trace=False, metrics=False, fleet=True, journeys=True)
    driver = SustainedLoadDriver(graph, sustained, config=SimulationConfig(seed=3))
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = driver.execute(obs=obs)
        assert result.report.completed > 0 and "load" in obs.fleet.series_names()
        alive = [weakref.ref(driver), weakref.ref(driver.runtime)]
        del driver, result
        assert [ref() for ref in alive] == [None, None]
    finally:
        if enabled:
            gc.enable()
    assert obs.fleet.nodes()  # the bundle and its series are still held


# ----------------------------------------------------------------------
# failing plan daemons
# ----------------------------------------------------------------------
def _small_driver():
    graph, sustained = _small_spec()
    return SustainedLoadDriver(graph, sustained, config=SimulationConfig(seed=5))


def test_raising_policy_fails_the_run(monkeypatch):
    """A trigger policy that raises kills the balancer process; the run
    must fail with that error, not report every task completed with no
    migrations."""
    from repro.cluster.policy import ThresholdPolicy

    def select_target(self, node, own_load, view):
        raise RuntimeError("policy failed")

    monkeypatch.setattr(ThresholdPolicy, "select_target", select_target)
    with pytest.raises(RuntimeError, match="policy failed"):
        _small_driver().execute()


def test_raising_slo_monitor_fails_the_run():
    """An SLO monitor that raises kills the utilization sampler; the run
    must fail, not return a report with a single utilization sample."""

    class Failing:
        def evaluate(self, t, values):
            raise RuntimeError("monitor failed")

    driver = _small_driver()
    driver.slo_monitor = Failing()
    with pytest.raises(RuntimeError, match="monitor failed"):
        driver.execute()


def test_raising_gossip_daemon_fails_the_plan(monkeypatch):
    """A gossip daemon that raises leaves its node's load unpropagated;
    the plan must fail with that error (``plan()`` alone, as the figure
    generators call it)."""
    from repro.cluster.gossip import GossipLoadMap

    def send_update(self, sender):
        raise RuntimeError("gossip failed")

    monkeypatch.setattr(GossipLoadMap, "_send_update", send_update)
    with pytest.raises(RuntimeError, match="gossip failed"):
        _small_driver().plan()
