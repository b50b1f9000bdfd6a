"""Unit tests for the network registry."""

from __future__ import annotations

import pytest

from repro.config import NetworkSpec
from repro.errors import NetworkError
from repro.net.network import Network


def make_net():
    net = Network()
    net.connect(
        "home",
        "dest",
        NetworkSpec(bandwidth_bps=1e6, latency_s=0.01, per_message_overhead_bytes=0),
    )
    return net


def test_connect_registers_nodes():
    net = make_net()
    assert net.nodes == frozenset({"home", "dest"})


def test_duplicate_link_rejected():
    net = make_net()
    with pytest.raises(NetworkError):
        net.connect("dest", "home", NetworkSpec())


def test_missing_link_raises():
    net = make_net()
    with pytest.raises(NetworkError):
        net.direction("home", "elsewhere")


def test_transfer_returns_arrival_time():
    net = make_net()
    assert net.direction("home", "dest").transfer(1000, 0.0) == pytest.approx(0.011)


def test_plain_registry_never_invents_links():
    net = Network(("home", "dest", "solo"))
    net.connect("home", "dest", NetworkSpec())
    assert "solo" in net.nodes
    with pytest.raises(NetworkError):
        net.direction("home", "solo")


# ----------------------------------------------------------------------
# lazy full mesh: links between mesh nodes appear on first lookup
# ----------------------------------------------------------------------
def test_mesh_starts_without_links(connects):
    net = Network(("a", "b", "c"), spec=NetworkSpec())
    assert net.nodes == frozenset("abc")
    assert connects == []


def test_first_lookup_creates_exactly_one_default_link(connects):
    spec = NetworkSpec(bandwidth_bps=1e6)
    net = Network(("a", "b", "c"), spec=spec)
    channel = net.direction("b", "a")
    # Created through connect, endpoints in node-list order, default spec.
    assert connects == [("a", "b", spec)]
    assert net.link_between("a", "b").endpoints == ("a", "b")
    assert channel.bandwidth_bps == 1e6
    # Later lookups and traffic reuse it.
    assert net.direction("b", "a") is channel
    net.direction("a", "b").transfer(100, 0.0)
    net.direction("b", "a").transfer(100, 0.0)
    assert len(connects) == 1


def test_reversed_override_key_is_honoured():
    default, slow = NetworkSpec(), NetworkSpec(bandwidth_bps=1e5)
    net = Network(("a", "b", "c"), spec=default, link_specs={("c", "a"): slow})
    assert net.link_between("a", "c").spec is slow
    assert net.link_between("b", "c").spec is default


def test_node_order_override_key_wins():
    ordered, reversed_ = NetworkSpec(bandwidth_bps=1e5), NetworkSpec(bandwidth_bps=2e5)
    overrides = {("b", "a"): ordered, ("a", "b"): reversed_}
    net = Network(("b", "a"), spec=NetworkSpec(), link_specs=overrides)
    assert net.link_between("a", "b").spec is ordered


def test_mesh_rejects_unknown_nodes_and_self_links(connects):
    net = Network(("a", "b"), spec=NetworkSpec())
    with pytest.raises(NetworkError):
        net.direction("a", "elsewhere")
    with pytest.raises(NetworkError):
        net.link_between("elsewhere", "b")
    with pytest.raises(NetworkError):
        net.direction("a", "a")
    assert "elsewhere" not in net.nodes
