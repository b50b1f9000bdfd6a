"""Unit tests for the network registry and DES-integrated delivery."""

from __future__ import annotations

import pytest

from repro.config import NetworkSpec
from repro.errors import NetworkError
from repro.net.message import Message, MessageKind
from repro.net.network import Network


def make_net(sim):
    net = Network(sim)
    net.connect(
        "home",
        "dest",
        NetworkSpec(bandwidth_bps=1e6, latency_s=0.01, per_message_overhead_bytes=0),
    )
    return net


def test_connect_registers_nodes(sim):
    net = make_net(sim)
    assert net.nodes == frozenset({"home", "dest"})


def test_duplicate_link_rejected(sim):
    net = make_net(sim)
    with pytest.raises(NetworkError):
        net.connect("dest", "home", NetworkSpec())


def test_missing_link_raises(sim):
    net = make_net(sim)
    with pytest.raises(NetworkError):
        net.direction("home", "elsewhere")


def test_transfer_returns_arrival_time(sim):
    net = make_net(sim)
    assert net.transfer("home", "dest", 1000) == pytest.approx(0.011)


def test_send_schedules_delivery_callback(sim):
    net = make_net(sim)
    seen = []
    msg = Message(MessageKind.PAGE_REPLY, src="home", dst="dest", payload_bytes=1000)
    net.send(msg, lambda m, t: seen.append((m.kind, t)))
    sim.run()
    assert seen == [(MessageKind.PAGE_REPLY, pytest.approx(0.011))]
    assert sim.now == pytest.approx(0.011)


def test_round_trip_time_unloaded(sim):
    net = make_net(sim)
    rtt = net.round_trip_time("home", "dest")
    assert rtt == pytest.approx(0.02, rel=1e-6)


def test_round_trip_time_does_not_occupy_link(sim):
    net = make_net(sim)
    net.round_trip_time("home", "dest", payload_bytes=10**6)
    assert net.direction("home", "dest").queuing_delay(0.0) == 0.0


def test_message_negative_payload_rejected():
    with pytest.raises(ValueError):
        Message(MessageKind.SYSCALL, "a", "b", payload_bytes=-5)


def test_add_node(sim):
    net = Network(sim)
    net.add_node("solo")
    assert "solo" in net.nodes


def test_plain_registry_never_invents_links(sim):
    net = make_net(sim)
    net.add_node("solo")
    with pytest.raises(NetworkError):
        net.direction("home", "solo")


# ----------------------------------------------------------------------
# lazy full mesh: links between mesh nodes appear on first lookup
# ----------------------------------------------------------------------
def test_mesh_starts_without_links(sim, connects):
    net = Network(sim, ("a", "b", "c"), spec=NetworkSpec())
    assert net.nodes == frozenset("abc")
    assert connects == []


def test_first_lookup_creates_exactly_one_default_link(sim, connects):
    spec = NetworkSpec(bandwidth_bps=1e6)
    net = Network(sim, ("a", "b", "c"), spec=spec)
    channel = net.direction("b", "a")
    # Created through connect, endpoints in node-list order, default spec.
    assert connects == [("a", "b", spec)]
    assert net.link_between("a", "b").endpoints == ("a", "b")
    assert channel.bandwidth_bps == 1e6
    # Later lookups and traffic reuse it.
    assert net.direction("b", "a") is channel
    net.transfer("a", "b", 100)
    net.round_trip_time("b", "a")
    assert len(connects) == 1


def test_reversed_override_key_is_honoured(sim):
    default, slow = NetworkSpec(), NetworkSpec(bandwidth_bps=1e5)
    net = Network(sim, ("a", "b", "c"), spec=default, link_specs={("c", "a"): slow})
    assert net.link_between("a", "c").spec is slow
    assert net.link_between("b", "c").spec is default


def test_node_order_override_key_wins(sim):
    ordered, reversed_ = NetworkSpec(bandwidth_bps=1e5), NetworkSpec(bandwidth_bps=2e5)
    overrides = {("b", "a"): ordered, ("a", "b"): reversed_}
    net = Network(sim, ("b", "a"), spec=NetworkSpec(), link_specs=overrides)
    assert net.link_between("a", "b").spec is ordered


def test_mesh_rejects_unknown_nodes_and_self_links(sim, connects):
    net = Network(sim, ("a", "b"), spec=NetworkSpec())
    with pytest.raises(NetworkError):
        net.direction("a", "elsewhere")
    with pytest.raises(NetworkError):
        net.link_between("elsewhere", "b")
    with pytest.raises(NetworkError):
        net.direction("a", "a")
    assert "elsewhere" not in net.nodes
