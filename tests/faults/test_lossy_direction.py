"""Unit tests for the fault-injecting link direction."""

from __future__ import annotations

import math

import pytest

from repro.config import FaultSpec, NetworkSpec
from repro.errors import FaultInjectionError
from repro.faults import (
    FaultEventKind,
    FaultInjectionLog,
    FaultPlan,
    LossyDirection,
    install_lossy_link,
)
from repro.net.link import Direction
from repro.net.network import Network
from repro.net.shaper import TrafficShaper
from repro.sim import Simulator


def make(spec_kwargs, seed=0, log=None):
    plan = FaultPlan(FaultSpec(**spec_kwargs), seed=seed, log=log)
    return LossyDirection(NetworkSpec(), "home->dest", plan)


def test_certain_loss_never_arrives_but_occupies_wire():
    ch = make({"loss_rate": 1.0})
    arrival = ch.transfer(4096, 0.0)
    assert math.isinf(arrival)
    assert ch.dropped_messages == 1
    # The frame was dropped downstream: the sender still serialized it.
    assert ch.total_messages == 1
    assert ch.total_bytes > 0
    assert ch.busy_until > 0


def test_flap_window_transmits_nothing():
    ch = make({"link_down_windows": ((1.0, 2.0),)})
    assert math.isinf(ch.transfer(4096, 1.5))
    assert ch.flap_dropped_messages == 1
    # Physically down: no bytes accounted, the wire never engaged.
    assert ch.total_bytes == 0
    assert ch.busy_until == 0.0
    # Outside the window the channel behaves normally.
    assert not math.isinf(ch.transfer(4096, 2.5))


def test_duplicate_survives_original_loss():
    ch = make({"loss_rate": 1.0, "duplicate_rate": 1.0})
    arrival = ch.transfer(4096, 0.0)
    assert not math.isinf(arrival)
    assert ch.dropped_messages == 1
    assert ch.duplicated_messages == 1
    # Both copies occupied the wire.
    assert ch.total_messages == 2
    clean = Direction(NetworkSpec(), "ref")
    assert arrival > clean.transfer(4096, 0.0)


def test_delay_pushes_arrival_back():
    ch = make({"delay_rate": 1.0, "delay_s": 0.25})
    clean = Direction(NetworkSpec(), "ref")
    assert ch.transfer(4096, 0.0) == pytest.approx(clean.transfer(4096, 0.0) + 0.25)
    assert ch.delayed_messages == 1


def test_same_seed_same_fault_schedule():
    kwargs = {"loss_rate": 0.2, "duplicate_rate": 0.1, "delay_rate": 0.3, "delay_s": 0.01}
    a = make(kwargs, seed=42)
    b = make(kwargs, seed=42)
    arrivals_a = [a.transfer(1000, i * 0.01) for i in range(500)]
    arrivals_b = [b.transfer(1000, i * 0.01) for i in range(500)]
    assert arrivals_a == arrivals_b
    assert a.dropped_messages == b.dropped_messages
    assert a.duplicated_messages == b.duplicated_messages
    assert a.delayed_messages == b.delayed_messages


def test_events_are_logged():
    log = FaultInjectionLog()
    ch = make({"loss_rate": 1.0}, log=log)
    ch.transfer(100, 0.0)
    assert log.count(FaultEventKind.DROP) == 1
    (event,) = log.events(FaultEventKind.DROP)
    assert event.channel == "home->dest"


def test_install_lossy_link_replaces_both_directions():
    net = Network(Simulator())
    net.connect("home", "dest", NetworkSpec())
    plan = FaultPlan(FaultSpec(loss_rate=1.0), seed=0)
    install_lossy_link(net, "home", "dest", plan)
    assert isinstance(net.direction("home", "dest"), LossyDirection)
    assert isinstance(net.direction("dest", "home"), LossyDirection)
    assert math.isinf(net.direction("home", "dest").transfer(100, 0.0))


def test_install_lossy_link_keeps_the_link_shape():
    # The wrapper is built from the link's spec; it used to come out at
    # the native 12.5e6 B/s and 0.15 ms, dropping an applied shape.
    net = Network(Simulator())
    net.connect("home", "dest", NetworkSpec())
    shaper = TrafficShaper(net.link_between("home", "dest"))
    shaper.apply(1e5, 0.01)
    install_lossy_link(net, "home", "dest", FaultPlan(FaultSpec(), seed=0))
    channels = [net.direction("home", "dest"), net.direction("dest", "home")]
    for channel in channels:
        assert isinstance(channel, LossyDirection)
        assert (channel.bandwidth_bps, channel.latency_s) == (1e5, 0.01)
    shaper.revert()
    native = NetworkSpec()
    for channel in channels:
        assert (channel.bandwidth_bps, channel.latency_s) == (
            native.bandwidth_bps,
            native.latency_s,
        )


def test_install_refuses_a_used_link():
    net = Network(Simulator())
    net.connect("home", "dest", NetworkSpec())
    net.direction("home", "dest").transfer(100, 0.0)
    plan = FaultPlan(FaultSpec(loss_rate=1.0), seed=0)
    with pytest.raises(FaultInjectionError):
        install_lossy_link(net, "home", "dest", plan)
