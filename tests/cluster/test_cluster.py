"""Unit tests for cluster assembly."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.sustained import run_sustained
from repro.cluster.topology import build_preset
from repro.config import FaultSpec, SimulationConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, LossyDirection, install_lossy_link
from repro.sim import Simulator


def test_default_two_nodes(sim, sim_config):
    cluster = Cluster(sim, sim_config)
    assert set(cluster.nodes) == {"home", "dest"}
    assert cluster.network.direction("home", "dest") is not None


def test_full_mesh(sim, sim_config):
    cluster = Cluster(sim, sim_config, node_names=["a", "b", "c"])
    for src in "abc":
        for dst in "abc":
            if src != dst:
                assert cluster.network.direction(src, dst) is not None


def test_node_lookup(sim, sim_config):
    cluster = Cluster(sim, sim_config)
    assert cluster.node("home").name == "home"
    with pytest.raises(ConfigurationError):
        cluster.node("nowhere")


def test_duplicate_names_rejected(sim, sim_config):
    with pytest.raises(ConfigurationError):
        Cluster(sim, sim_config, node_names=["a", "a"])


def test_single_node_rejected(sim, sim_config):
    with pytest.raises(ConfigurationError):
        Cluster(sim, sim_config, node_names=["solo"])


def test_shaper_access(sim, sim_config):
    cluster = Cluster(sim, sim_config)
    shaper = cluster.shaper("home", "dest")
    shaper.apply(1e6, 0.002)
    assert cluster.network.direction("home", "dest").bandwidth_bps == 1e6


# ----------------------------------------------------------------------
# links are created on first use, so fleets pay for traffic, not size
# ----------------------------------------------------------------------
def test_thousand_node_cluster_holds_no_links(sim, sim_config, connects):
    cluster = Cluster(sim, sim_config, node_names=[f"n{i:04d}" for i in range(1000)])
    assert len(cluster.network.nodes) == 1000
    assert connects == []


def test_lossy_link_on_untouched_pair(sim, sim_config):
    cluster = Cluster(sim, sim_config, node_names=["a", "b", "c"])
    install_lossy_link(
        cluster.network, "c", "a", FaultPlan(FaultSpec(loss_rate=0.5), seed=0)
    )
    assert isinstance(cluster.network.direction("a", "c"), LossyDirection)
    assert isinstance(cluster.network.direction("c", "a"), LossyDirection)


def test_cluster_300_connects_only_pairs_that_talk(connects):
    """A seeded ``cluster_300`` run links only the pairs its gossip and
    migrations use, across both phases; an eager mesh would make
    2 x 44,850 = 89,700 connects."""
    result = run_sustained(build_preset("cluster_300", seed=0))
    assert result.report.completed == result.report.arrivals
    assert 0 < len(connects) < 5000


def test_cluster_300_plan_builds_only_directions_that_carry(directions):
    """Gossip crosses most links one way: the ``cluster_300`` plan builds
    a direction only where a message goes, never its idle reverse."""
    from repro.cluster.sustained import SustainedLoadDriver

    spec = build_preset("cluster_300", seed=7)
    SustainedLoadDriver(spec.graph, spec.sustained, config=spec.config).plan()
    assert len(directions) > 1000
    assert all(d.total_messages > 0 for d in directions)
