"""Unit tests for traffic shaping (the tc/iptables emulation)."""

from __future__ import annotations

import math

import pytest

from repro.config import NetworkSpec
from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.shaper import TrafficShaper
from repro.units import mbit_per_s, ms


def make_link():
    return Link("a", "b", NetworkSpec())


def test_apply_reshapes_link():
    link = make_link()
    shaper = TrafficShaper(link)
    shaper.apply(mbit_per_s(6.0), ms(2.0))
    assert shaper.active
    assert link.direction("a", "b").bandwidth_bps == pytest.approx(mbit_per_s(6.0))
    assert link.direction("b", "a").latency_s == pytest.approx(ms(2.0))


def test_revert_restores_native(sim):
    link = make_link()
    native_bw = link.direction("a", "b").bandwidth_bps
    shaper = TrafficShaper(link)
    shaper.apply(mbit_per_s(6.0), ms(2.0))
    shaper.revert()
    assert not shaper.active
    assert link.direction("a", "b").bandwidth_bps == pytest.approx(native_bw)


def test_cannot_shape_above_capacity():
    shaper = TrafficShaper(make_link())
    with pytest.raises(NetworkError):
        shaper.apply(mbit_per_s(1000.0), ms(1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_shape_rejected(bad):
    link = make_link()
    shaper = TrafficShaper(link)
    with pytest.raises(NetworkError):
        shaper.apply(bad, ms(2.0))
    with pytest.raises(NetworkError):
        shaper.apply(mbit_per_s(6.0), bad)
    assert not shaper.active
    assert link.direction("a", "b").latency_s == NetworkSpec().latency_s


def test_current_reflects_state():
    link = make_link()
    shaper = TrafficShaper(link)
    native = shaper.current
    shaper.apply(mbit_per_s(6.0), ms(2.0))
    assert shaper.current == (mbit_per_s(6.0), ms(2.0))
    shaper.revert()
    assert shaper.current == native


def test_schedule_applies_mid_simulation(sim):
    link = make_link()
    shaper = TrafficShaper(link)
    shaper.schedule(sim, at=5.0, bandwidth_bps=mbit_per_s(6.0), latency_s=ms(2.0))
    sim.run(until=4.0)
    assert not shaper.active
    sim.run()
    assert shaper.active
