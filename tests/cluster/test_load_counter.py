"""Differential tests for the scheduler's incremental load bookkeeping.

``ClusterScheduler`` keeps a per-node count of arrived, unfinished tasks
instead of rescanning every task on each read.  :func:`rescan` is the
full scan the counter replaced; on sustained ``cluster_32`` plans every
read — each balancer round, each telemetry tick, each gossip sample —
and the counter after every migration must agree with it exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.policy import POLICIES
from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.sustained import SustainedLoadDriver
from repro.cluster.topology import build_preset
from repro.config import NodeFaultSpec


def rescan(scheduler: ClusterScheduler) -> dict[str, int]:
    """Per-node load by scanning every task: the reference semantics."""
    loads = {name: 0 for name in scheduler.cluster.nodes}
    now = scheduler.sim.now
    for task in scheduler.tasks:
        if task.finished_at is None and task.arrival_s <= now:
            loads[task.node] += 1
    return loads


@pytest.fixture
def audit(monkeypatch) -> dict[str, int]:
    """Check every load read and every migration against :func:`rescan`;
    returns how often each was checked."""
    seen = {"rounds": 0, "loads": 0, "load": 0, "migrations": 0}
    loads, load = ClusterScheduler._loads, ClusterScheduler.load
    migrate, gossip_round = ClusterScheduler._migrate, ClusterScheduler._gossip_round

    def checked_loads(self):
        got = loads(self)
        assert list(got.items()) == list(rescan(self).items())
        seen["loads"] += 1
        return got

    def checked_load(self, name):
        got = load(self, name)
        assert got == rescan(self)[name]
        seen["load"] += 1
        return got

    def checked_migrate(self, task, dest, view=None):
        migrate(self, task, dest, view=view)
        assert self._live == rescan(self)
        seen["migrations"] += 1

    def counted_round(self):
        seen["rounds"] += 1
        gossip_round(self)

    monkeypatch.setattr(ClusterScheduler, "_loads", checked_loads)
    monkeypatch.setattr(ClusterScheduler, "load", checked_load)
    monkeypatch.setattr(ClusterScheduler, "_migrate", checked_migrate)
    monkeypatch.setattr(ClusterScheduler, "_gossip_round", counted_round)
    return seen


def _plan(policy: str, node_faults: NodeFaultSpec | None = None):
    spec = build_preset("cluster_32", seed=3)
    config = spec.config
    if node_faults is not None:
        config = config.with_(node_faults=node_faults)
    sustained = dataclasses.replace(spec.sustained, policy=policy)
    driver = SustainedLoadDriver(spec.graph, sustained, config=config)
    driver.plan()
    return driver


def _assert_every_read_checked(driver, seen):
    # One _loads() per balancer round and per telemetry tick, nothing else.
    assert seen["rounds"] > 0 and driver.samples
    assert seen["loads"] == seen["rounds"] + len(driver.samples)
    assert seen["load"] > 0  # the gossip daemons' own-load samples


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_counter_matches_rescan(policy, audit):
    driver = _plan(policy)
    _assert_every_read_checked(driver, audit)
    assert audit["migrations"] == driver.report.migrations > 0


def test_counter_matches_rescan_under_node_faults(audit):
    faults = NodeFaultSpec(
        crash_windows=(("n000", 2.0, 5.0), ("n017", 1.0, 9.0)),
        crash_rate_hz=0.05,
        mean_downtime_s=1.5,
        horizon_s=8.0,
    )
    driver = _plan("threshold", faults)
    _assert_every_read_checked(driver, audit)
    assert audit["migrations"] == driver.report.migrations > 0
