"""Validation tests for the declarative scenario layer (topology.py)."""

from __future__ import annotations

import json
import math

import pytest

from repro.cluster.topology import (
    DEST,
    FILE_SERVER,
    HOME,
    PRESETS,
    LinkSpec,
    MigrantSpec,
    NodeGraph,
    ScenarioSpec,
    build_preset,
    load_scenario,
    make_strategy,
    scenario_from_dict,
    two_node_spec,
)
from repro.config import FaultSpec, NetworkSpec, SimulationConfig
from repro.errors import ConfigurationError, MigrationError
from repro.migration.ampom import AmpomMigration
from repro.migration.ffa import FfaMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload


def _workload():
    return SequentialWorkload(mib(1))


# ----------------------------------------------------------------------
# LinkSpec / NodeGraph
# ----------------------------------------------------------------------
def test_link_spec_rejects_self_loop():
    with pytest.raises(MigrationError):
        LinkSpec("a", "a")


def test_link_spec_shaping_params_must_pair():
    with pytest.raises(MigrationError):
        LinkSpec("a", "b", shaped_bandwidth_bps=1e6)
    with pytest.raises(MigrationError):
        LinkSpec("a", "b", shaped_latency_s=0.002)


def test_link_spec_pair_is_order_independent():
    assert LinkSpec("b", "a").pair == LinkSpec("a", "b").pair == ("a", "b")


def test_node_graph_needs_two_distinct_nodes():
    with pytest.raises(MigrationError):
        NodeGraph(("solo",))
    with pytest.raises(MigrationError):
        NodeGraph(("a", "a"))


def test_node_graph_rejects_unknown_link_endpoint():
    with pytest.raises(MigrationError):
        NodeGraph(("a", "b"), (LinkSpec("a", "c"),))


def test_node_graph_rejects_duplicate_link():
    with pytest.raises(MigrationError):
        NodeGraph(("a", "b"), (LinkSpec("a", "b"), LinkSpec("b", "a")))


def test_node_graph_spec_overrides_only_network_links():
    net = NetworkSpec.broadband()
    graph = NodeGraph(
        ("a", "b", "c"),
        (LinkSpec("a", "b", network=net), LinkSpec("b", "c", lossy=True)),
    )
    assert graph.spec_overrides() == {("a", "b"): net}
    assert graph.link_spec("c", "b").lossy is True
    assert graph.link_spec("a", "c") is None


# ----------------------------------------------------------------------
# MigrantSpec
# ----------------------------------------------------------------------
def test_migrant_spec_path_needs_two_nodes():
    with pytest.raises(MigrationError):
        MigrantSpec(workload=_workload(), strategy=AmpomMigration(), path=("a",))


def test_migrant_spec_rejects_revisit():
    with pytest.raises(MigrationError):
        MigrantSpec(
            workload=_workload(), strategy=AmpomMigration(), path=("a", "b", "a")
        )


def test_migrant_spec_rejects_negative_start():
    with pytest.raises(MigrationError):
        MigrantSpec(workload=_workload(), strategy=AmpomMigration(), start_s=-1.0)


@pytest.mark.parametrize("start_s", [math.nan, math.inf])
def test_migrant_spec_rejects_non_finite_start(start_s):
    # Both used to pass construction and fail only inside the run.
    with pytest.raises(MigrationError, match="start_s"):
        MigrantSpec(workload=_workload(), strategy=AmpomMigration(), start_s=start_s)


def test_migrant_spec_rejects_nan_hop_delay():
    # A NaN delay used to pass and silently skip the re-hop.
    with pytest.raises(MigrationError, match="hop_delays"):
        MigrantSpec(
            workload=_workload(),
            strategy=AmpomMigration(),
            path=("a", "b", "c"),
            hop_delays=(math.nan,),
        )


def test_migrant_spec_hop_delay_arity():
    with pytest.raises(MigrationError):
        MigrantSpec(
            workload=_workload(), strategy=AmpomMigration(), path=("a", "b", "c")
        )
    with pytest.raises(MigrationError):
        MigrantSpec(
            workload=_workload(),
            strategy=AmpomMigration(),
            path=("a", "b", "c"),
            hop_delays=(0.1, 0.1),
        )
    with pytest.raises(MigrationError):
        MigrantSpec(
            workload=_workload(),
            strategy=AmpomMigration(),
            path=("a", "b", "c"),
            hop_delays=(0.0,),
        )


def test_migrant_spec_no_capacity_on_multi_hop():
    with pytest.raises(MigrationError):
        MigrantSpec(
            workload=_workload(),
            strategy=AmpomMigration(),
            path=("a", "b", "c"),
            hop_delays=(0.1,),
            capacity_pages=64,
        )
    spec = MigrantSpec(
        workload=_workload(),
        strategy=AmpomMigration(),
        path=("a", "b", "c"),
        hop_delays=(0.1,),
    )
    assert spec.home == "a"
    assert spec.hops == 2


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------
def test_scenario_needs_a_migrant():
    with pytest.raises(MigrationError):
        ScenarioSpec(graph=NodeGraph((HOME, DEST)), migrants=())


def test_scenario_rejects_unknown_path_node():
    migrant = MigrantSpec(
        workload=_workload(), strategy=AmpomMigration(), path=(HOME, "elsewhere")
    )
    with pytest.raises(MigrationError):
        ScenarioSpec(graph=NodeGraph((HOME, DEST)), migrants=(migrant,))


def test_scenario_ffa_requires_file_server_node():
    migrant = MigrantSpec(workload=_workload(), strategy=FfaMigration())
    with pytest.raises(MigrationError):
        ScenarioSpec(graph=NodeGraph((HOME, DEST)), migrants=(migrant,))
    spec = ScenarioSpec(
        graph=NodeGraph((HOME, DEST, FILE_SERVER)), migrants=(migrant,)
    )
    assert FILE_SERVER in spec.graph.nodes


def test_scenario_ffa_incompatible_with_faults():
    migrant = MigrantSpec(workload=_workload(), strategy=FfaMigration())
    config = SimulationConfig(faults=FaultSpec(loss_rate=0.05))
    with pytest.raises(MigrationError):
        ScenarioSpec(
            graph=NodeGraph((HOME, DEST, FILE_SERVER)),
            migrants=(migrant,),
            config=config,
        )


def test_scenario_rejects_background_on_unknown_node():
    from repro.cluster.loadgen import LoadWindow

    migrant = MigrantSpec(workload=_workload(), strategy=AmpomMigration())
    with pytest.raises(MigrationError):
        ScenarioSpec(
            graph=NodeGraph((HOME, DEST)),
            migrants=(migrant,),
            background={"elsewhere": [LoadWindow(0.0, 1.0, 1)]},
        )


def test_two_node_spec_adds_file_server_for_ffa():
    spec = two_node_spec(_workload(), FfaMigration())
    assert spec.graph.nodes == (HOME, DEST, FILE_SERVER)
    spec2 = two_node_spec(_workload(), AmpomMigration())
    assert spec2.graph.nodes == (HOME, DEST)


# ----------------------------------------------------------------------
# presets + spec files
# ----------------------------------------------------------------------
def test_build_preset_unknown_name():
    with pytest.raises(MigrationError):
        build_preset("no-such-preset")


def test_make_strategy_unknown_scheme():
    with pytest.raises(MigrationError):
        make_strategy("Telepathy")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_build(name):
    spec = build_preset(name, scale=1 / 32)
    # Sustained presets carry an arrival stream instead of fixed migrants.
    assert spec.migrants or spec.sustained is not None
    assert len(spec.graph.nodes) >= 2


def test_three_hop_lossy_preset_rejects_ffa():
    with pytest.raises(MigrationError):
        build_preset("three-hop-lossy", scheme="FFA")


def test_scenario_from_dict_roundtrip():
    spec = scenario_from_dict(
        {
            "nodes": ["home", "n1", "n2"],
            "links": [
                {
                    "a": "home",
                    "b": "n1",
                    "shaped_bandwidth_bps": 6e6,
                    "shaped_latency_s": 2e-3,
                }
            ],
            "seed": 3,
            "faults": {"loss_rate": 0.03},
            "migrants": [
                {
                    "kernel": "DGEMM",
                    "memory_mb": 115,
                    "scale": 0.03125,
                    "scheme": "AMPoM",
                    "path": ["home", "n1", "n2"],
                    "hop_delays": [0.25],
                }
            ],
        }
    )
    assert spec.graph.nodes == ("home", "n1", "n2")
    assert spec.graph.link_spec("home", "n1").shaped_bandwidth_bps == 6e6
    assert spec.resolved_config().seed == 3
    assert spec.resolved_config().faults.loss_rate == 0.03
    assert spec.migrants[0].path == ("home", "n1", "n2")
    assert spec.migrants[0].hop_delays == (0.25,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_link_spec_rejects_non_finite_shaping(bad):
    with pytest.raises(MigrationError, match="shaped_bandwidth_bps"):
        LinkSpec(HOME, DEST, shaped_bandwidth_bps=bad, shaped_latency_s=0.002)
    with pytest.raises(MigrationError, match="shaped_latency_s"):
        LinkSpec(HOME, DEST, shaped_bandwidth_bps=6e6, shaped_latency_s=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scenario_from_dict_rejects_non_finite_links(bad):
    """Both used to be accepted and fail mid-run with a SimulationError
    from a non-finite Timeout delay."""
    base = {"nodes": [HOME, DEST], "migrants": [{"scale": 0.03125}]}
    shaped = {"a": HOME, "b": DEST, "shaped_bandwidth_bps": bad, "shaped_latency_s": 0.002}
    with pytest.raises(MigrationError, match="shaped_bandwidth_bps"):
        scenario_from_dict({**base, "links": [shaped]})
    slow = {"a": HOME, "b": DEST, "network": {"latency_s": bad}}
    with pytest.raises(ConfigurationError, match="latency_s"):
        scenario_from_dict({**base, "links": [slow]})


def test_scenario_from_dict_missing_keys():
    with pytest.raises(MigrationError):
        scenario_from_dict({"nodes": ["a", "b"]})
    with pytest.raises(MigrationError):
        scenario_from_dict({"migrants": []})


def test_load_scenario_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "nodes": ["home", "dest"],
                "migrants": [{"scale": 0.03125, "scheme": "NoPrefetch"}],
            }
        )
    )
    spec = load_scenario(path)
    assert spec.migrants[0].path == (HOME, DEST)


def test_load_scenario_rejects_garbage(tmp_path):
    with pytest.raises(MigrationError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(MigrationError):
        load_scenario(bad)
