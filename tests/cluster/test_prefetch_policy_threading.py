"""Threading the named prefetch policy through config, spec, and metrics.

The resolution precedence is: strategy ``prefetch_policy=`` >
``MigrantSpec.prefetch_policy`` > ``SimulationConfig.prefetch_policy`` >
the scheme's own default.  These tests pin each hop of that chain plus
the per-policy labeled metrics the registry emits.
"""

from __future__ import annotations

import pytest

from repro.cluster.loadgen import ArrivalSpec
from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import (
    HOME,
    MigrantSpec,
    NodeGraph,
    ScenarioSpec,
    SustainedSpec,
    two_node_spec,
)
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.migration.ampom import AmpomMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload


def two_node_run(config=None, migrant_policy=None, strategy=None):
    spec = ScenarioSpec(
        graph=NodeGraph((HOME, "dest")),
        migrants=(
            MigrantSpec(
                workload=SequentialWorkload(mib(1), sweeps=2),
                strategy=strategy if strategy is not None else AmpomMigration(),
                path=(HOME, "dest"),
                prefetch_policy=migrant_policy,
            ),
        ),
        config=config if config is not None else SimulationConfig(),
    )
    return ScenarioRuntime(spec).execute()[0]


def test_default_resolves_scheme_policy():
    result = two_node_run()
    assert result.prefetch_policy == "ampom"
    assert result.to_dict()["prefetch_policy"] == "ampom"


def test_config_policy_reaches_the_executor():
    config = SimulationConfig().with_(prefetch_policy="leap")
    result = two_node_run(config=config)
    assert result.prefetch_policy == "leap"


def test_migrant_spec_policy_wins_over_config():
    config = SimulationConfig().with_(prefetch_policy="leap")
    result = two_node_run(config=config, migrant_policy="readahead-4")
    assert result.prefetch_policy == "readahead-4"


def test_strategy_policy_wins_over_spec_and_config():
    config = SimulationConfig().with_(prefetch_policy="leap")
    result = two_node_run(
        config=config,
        migrant_policy="readahead-4",
        strategy=AmpomMigration(prefetch_policy="noprefetch"),
    )
    assert result.prefetch_policy == "noprefetch"


def test_migration_run_threads_config_policy():
    config = SimulationConfig().with_(prefetch_policy="readahead-4")
    result = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1), sweeps=2), AmpomMigration(), config=config)
    ).execute()[0]
    assert result.prefetch_policy == "readahead-4"


def test_policy_changes_behavior_but_not_interface():
    base = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1), sweeps=2), AmpomMigration())
    ).execute()[0]
    noprefetch = ScenarioRuntime(
        two_node_spec(
            SequentialWorkload(mib(1), sweeps=2),
            AmpomMigration(),
            config=SimulationConfig().with_(prefetch_policy="noprefetch"),
        )
    ).execute()[0]
    assert base.counters.pages_prefetched > 0
    assert noprefetch.counters.pages_prefetched == 0
    assert set(base.to_dict()) == set(noprefetch.to_dict())


def test_invalid_names_rejected_at_spec_construction():
    with pytest.raises(ConfigurationError, match="prefetch policy"):
        MigrantSpec(
            workload=SequentialWorkload(mib(1)),
            strategy=AmpomMigration(),
            path=(HOME, "dest"),
            prefetch_policy="bogus",
        )
    with pytest.raises(ConfigurationError, match="prefetch policy"):
        SustainedSpec(
            arrivals=ArrivalSpec(rate_hz=1.0, horizon_s=1.0),
            prefetch_policy="bogus",
        )
    with pytest.raises(ConfigurationError, match="prefetch policy"):
        ScenarioSpec(
            graph=NodeGraph((HOME, "dest")),
            migrants=(
                MigrantSpec(
                    workload=SequentialWorkload(mib(1)),
                    strategy=AmpomMigration(),
                    path=(HOME, "dest"),
                ),
            ),
            config=SimulationConfig().with_(prefetch_policy="bogus"),
        )


def test_labeled_metrics_name_the_policy():
    from repro.obs import Observability

    obs = Observability.enabled(metrics=True)
    spec = ScenarioSpec(
        graph=NodeGraph((HOME, "dest")),
        migrants=(
            MigrantSpec(
                workload=SequentialWorkload(mib(1), sweeps=2),
                strategy=AmpomMigration(),
                path=(HOME, "dest"),
                prefetch_policy="leap",
            ),
        ),
        config=SimulationConfig(),
    )
    ScenarioRuntime(spec, obs=obs).execute()
    counters = obs.metrics.summary()["counters"]
    assert 'prefetch_accuracy{policy="leap"}' in counters
    assert 'prefetch_waste_fraction{policy="leap"}' in counters
    assert counters["prefetch_accuracy"] == counters['prefetch_accuracy{policy="leap"}']
