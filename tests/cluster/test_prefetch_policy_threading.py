"""The named prefetch policy lives on the migration strategy alone.

A :class:`MigrationStrategy` instance is the one place that says what a
migration runs: its class is the scheme and its ``prefetch_policy`` the
policy (``None`` = the scheme's default).  These tests pin that home,
the forms that build it (spec files, sustained specs) and the
per-policy labeled metrics the registry emits.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.loadgen import ArrivalSpec
from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import (
    HOME,
    MigrantSpec,
    NodeGraph,
    ScenarioSpec,
    SustainedSpec,
    make_strategy,
    scenario_from_dict,
    two_node_spec,
)
from repro.config import SimulationConfig
from repro.errors import ConfigurationError, MigrationError
from repro.migration.ampom import AmpomMigration
from repro.migration.base import MigrationContext
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload


def two_node_run(strategy=None):
    spec = two_node_spec(
        SequentialWorkload(mib(1), sweeps=2),
        strategy if strategy is not None else AmpomMigration(),
        config=SimulationConfig(),
    )
    return ScenarioRuntime(spec).execute()[0]


def test_default_resolves_scheme_policy():
    result = two_node_run()
    assert result.prefetch_policy == "ampom"
    assert result.to_dict()["prefetch_policy"] == "ampom"


def test_strategy_policy_reaches_the_executor():
    result = two_node_run(AmpomMigration(prefetch_policy="leap"))
    assert result.prefetch_policy == "leap"


def test_only_the_strategy_names_a_policy():
    names = {f.name for f in dataclasses.fields(SimulationConfig)}
    names |= {f.name for f in dataclasses.fields(MigrantSpec)}
    names |= {f.name for f in dataclasses.fields(MigrationContext)}
    assert "prefetch_policy" not in names
    with pytest.raises(MigrationError, match="MigrationStrategy instance"):
        MigrantSpec(workload=SequentialWorkload(mib(1)), strategy=AmpomMigration)


def test_policy_changes_behavior_but_not_interface():
    base = two_node_run()
    noprefetch = two_node_run(AmpomMigration(prefetch_policy="noprefetch"))
    assert base.counters.pages_prefetched > 0
    assert noprefetch.counters.pages_prefetched == 0
    assert set(base.to_dict()) == set(noprefetch.to_dict())


def test_invalid_names_rejected_at_spec_construction():
    with pytest.raises(ConfigurationError, match="prefetch policy"):
        AmpomMigration(prefetch_policy="bogus")
    with pytest.raises(ConfigurationError, match="prefetch policy"):
        SustainedSpec(
            arrivals=ArrivalSpec(rate_hz=1.0, horizon_s=1.0),
            prefetch_policy="bogus",
        )
    with pytest.raises(ConfigurationError, match="prefetch_policy does not apply"):
        SustainedSpec(
            arrivals=ArrivalSpec(rate_hz=1.0, horizon_s=1.0),
            scheme="openMosix",
            prefetch_policy="leap",
        )
    with pytest.raises(ConfigurationError, match="prefetch policy"):
        scenario_from_dict(
            {"nodes": ["home", "dest"], "migrants": [{"prefetch_policy": "bogus"}]}
        )


def test_spec_files_name_the_policy_per_migrant():
    spec = scenario_from_dict(
        {"nodes": ["home", "dest"], "migrants": [{"prefetch_policy": "leap"}]}
    )
    assert spec.migrants[0].strategy.prefetch_policy == "leap"
    with pytest.raises(MigrationError, match="top-level 'prefetch_policy'"):
        scenario_from_dict(
            {"nodes": ["home", "dest"], "prefetch_policy": "leap", "migrants": [{}]}
        )


def test_sustained_policy_reaches_every_migrant():
    from repro.cluster.sustained import SustainedLoadDriver
    from repro.cluster.topology import build_preset

    spec = build_preset("cluster_32", seed=7)
    sustained = dataclasses.replace(spec.sustained, prefetch_policy="leap")
    driver = SustainedLoadDriver(spec.graph, sustained, config=spec.config)
    _report, decisions = driver.plan()
    migrants = driver.migrant_specs(decisions)
    assert migrants
    assert all(m.strategy is sustained.strategy for m in migrants)
    assert sustained.strategy.prefetch_policy == "leap"
    assert make_strategy("AMPoM").prefetch_policy is None


def test_labeled_metrics_name_the_policy():
    from repro.obs import Observability

    obs = Observability.enabled(metrics=True)
    spec = ScenarioSpec(
        graph=NodeGraph((HOME, "dest")),
        migrants=(
            MigrantSpec(
                workload=SequentialWorkload(mib(1), sweeps=2),
                strategy=AmpomMigration(prefetch_policy="leap"),
                path=(HOME, "dest"),
            ),
        ),
        config=SimulationConfig(),
    )
    ScenarioRuntime(spec, obs=obs).execute()
    counters = obs.metrics.summary()["counters"]
    assert 'prefetch_accuracy{policy="leap"}' in counters
    assert 'prefetch_waste_fraction{policy="leap"}' in counters
    assert counters["prefetch_accuracy"] == counters['prefetch_accuracy{policy="leap"}']
