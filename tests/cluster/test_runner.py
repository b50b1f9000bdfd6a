"""The paper's two-node run (``two_node_spec``) through ScenarioRuntime."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.config import NetworkSpec, SimulationConfig
from repro.errors import MigrationError
from repro.migration.ampom import AmpomMigration
from repro.migration.ffa import FfaMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.units import mbit_per_s, mib, ms
from repro.workloads.synthetic import SequentialWorkload


def test_execute_returns_result():
    runtime = ScenarioRuntime(two_node_spec(SequentialWorkload(mib(1)), AmpomMigration()))
    result = runtime.execute()[0]
    assert result.strategy == "AMPoM"
    assert result.total_time == result.freeze_time + result.run_time
    assert runtime.outcomes[0] is not None
    assert runtime.results == [result]


def test_single_use():
    runtime = ScenarioRuntime(two_node_spec(SequentialWorkload(mib(1)), AmpomMigration()))
    runtime.execute()
    with pytest.raises(MigrationError, match="single-use"):
        runtime.execute()
    with pytest.raises(MigrationError, match="single-use"):
        runtime.measure_freeze()


def test_ffa_gets_file_server_node():
    runtime = ScenarioRuntime(two_node_spec(SequentialWorkload(mib(1)), FfaMigration()))
    assert "fs" in runtime.cluster.nodes
    result = runtime.execute()[0]
    assert result.strategy == "FFA"


def test_infod_attached_only_with_policy():
    runtime = ScenarioRuntime(two_node_spec(SequentialWorkload(mib(1)), AmpomMigration()))
    runtime.execute()
    assert runtime.migrant_infods[0] is not None

    from repro.migration.openmosix import OpenMosixMigration

    runtime2 = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1)), OpenMosixMigration())
    )
    runtime2.execute()
    assert runtime2.migrant_infods[0] is None


def test_without_infod_uses_static_conditions():
    runtime = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1)), AmpomMigration(), with_infod=False)
    )
    result = runtime.execute()[0]
    assert runtime.migrant_infods[0] is None
    assert result.counters.pages_prefetched > 0


def _run(**kwargs):
    spec = two_node_spec(SequentialWorkload(mib(1)), NoPrefetchMigration(), **kwargs)
    return ScenarioRuntime(spec).execute()[0]


def test_shaping_slows_execution():
    fast = _run()
    slow = _run(shaped_bandwidth_bps=mbit_per_s(6.0), shaped_latency_s=ms(2.0))
    assert slow.total_time > fast.total_time * 2


def test_shaping_requires_both_parameters():
    with pytest.raises(MigrationError):
        two_node_spec(
            SequentialWorkload(mib(1)),
            NoPrefetchMigration(),
            shaped_bandwidth_bps=mbit_per_s(6.0),
        )
    with pytest.raises(MigrationError):
        two_node_spec(
            SequentialWorkload(mib(1)), NoPrefetchMigration(), shaped_latency_s=ms(2.0)
        )


def test_broadband_config_equivalent_to_shaping():
    """Shaping to 6 Mb/s matches building the link at 6 Mb/s."""
    shaped = _run(shaped_bandwidth_bps=mbit_per_s(6.0), shaped_latency_s=ms(2.0))
    native = _run(config=SimulationConfig(network=NetworkSpec.broadband()))
    assert shaped.total_time == pytest.approx(native.total_time, rel=0.02)


def test_max_events_guard():
    from repro.errors import SimulationError

    runtime = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1)), AmpomMigration(), max_events=10)
    )
    with pytest.raises(SimulationError):
        runtime.execute()
