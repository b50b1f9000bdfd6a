"""Unit tests for the seeded fault schedule (FaultPlan / FaultSpec)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FaultSpec
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults import CLEAN, FaultInjectionLog, FaultPlan
from repro.sim.rng import child_rng


def test_default_spec_is_inactive():
    assert not FaultSpec().active
    assert not FaultPlan(FaultSpec(), seed=0).active


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_rate": 0.01},
        {"duplicate_rate": 0.5},
        {"delay_rate": 1.0, "delay_s": 0.001},
        {"link_down_windows": ((1.0, 2.0),)},
        {"deputy_crash_windows": ((0.0, 0.1),)},
    ],
)
def test_any_perturbation_activates_spec(kwargs):
    assert FaultSpec(**kwargs).active


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_rate": -0.1},
        {"loss_rate": 1.5},
        {"duplicate_rate": 2.0},
        {"delay_s": -1.0},
        {"link_down_windows": ((2.0, 1.0),)},  # start >= end
        {"deputy_crash_windows": ((0.0, 1.0), (0.5, 2.0))},  # overlap
        {"replay_cache_pages": -1},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        FaultSpec(**kwargs)


def test_draws_are_deterministic_per_seed():
    spec = FaultSpec(loss_rate=0.3, duplicate_rate=0.2, delay_rate=0.4, delay_s=0.01)
    a = FaultPlan(spec, seed=7)
    b = FaultPlan(spec, seed=7)
    seq_a = [a.draw("home->dest", t * 0.1) for t in range(200)]
    seq_b = [b.draw("home->dest", t * 0.1) for t in range(200)]
    assert seq_a == seq_b
    # A different seed produces a different schedule.
    c = FaultPlan(spec, seed=8)
    seq_c = [c.draw("home->dest", t * 0.1) for t in range(200)]
    assert seq_a != seq_c


def test_channels_have_independent_streams():
    spec = FaultSpec(loss_rate=0.5)
    a = FaultPlan(spec, seed=1)
    b = FaultPlan(spec, seed=1)
    # Interleave extra traffic on another channel in plan ``b``: the
    # schedule on the first channel must not budge.
    seq_a = [a.draw("home->dest", float(i)) for i in range(100)]
    seq_b = []
    for i in range(100):
        b.draw("dest->home", float(i))
        seq_b.append(b.draw("home->dest", float(i)))
    assert seq_a == seq_b


def test_block_draws_match_one_draw_per_message():
    """Fates handed out from per-channel blocks equal one ``random(3)``
    per message on the channel's own stream, draws before activation
    consume nothing, and a message no fault hits gets the shared CLEAN."""
    spec = FaultSpec(loss_rate=0.2, duplicate_rate=0.1, delay_rate=0.3, delay_s=0.002)
    channels = ["home->n1", "n1->home", "n1->n2", "n2->n1", "n2->home"]
    plan = FaultPlan(spec, seed=5, active_from=float("inf"))
    reference = {ch: child_rng(5, f"faults:{ch}") for ch in channels}
    pick = np.random.default_rng(0)
    clean = 0
    for i in range(12_000):
        now = i * 1e-3
        if i == 2_500:
            plan.activate(now)
        ch = channels[int(pick.integers(len(channels)))]
        fate = plan.draw(ch, now)
        if i < 2_500:
            assert fate is CLEAN
            continue
        u = reference[ch].random(3)
        drop, duplicate, delay = (
            bool(u[0] < spec.loss_rate),
            bool(u[1] < spec.duplicate_rate),
            bool(u[2] < spec.delay_rate),
        )
        assert (fate.drop, fate.duplicate) == (drop, duplicate)
        assert fate.extra_delay == (spec.delay_s if delay else 0.0)
        assert (fate is CLEAN) == (not (drop or duplicate or delay))
        clean += fate is CLEAN
    assert 0 < clean < 12_000 - 2_500


def test_random_injection_gated_on_activation():
    spec = FaultSpec(loss_rate=1.0)
    plan = FaultPlan(spec, seed=0, active_from=float("inf"))
    assert plan.draw("ch", 1e9) is CLEAN
    plan.activate(5.0)
    assert plan.draw("ch", 4.999) is CLEAN
    assert plan.draw("ch", 5.0).drop


def test_link_down_windows_respect_activation():
    spec = FaultSpec(link_down_windows=((1.0, 2.0), (3.0, 4.0)))
    plan = FaultPlan(spec, seed=0, active_from=float("inf"))
    assert not plan.link_down(1.5)
    plan.activate(0.0)
    assert plan.link_down(1.5)
    assert not plan.link_down(2.0)  # half-open window
    assert plan.link_down(3.0)
    assert not plan.link_down(4.5)


def test_deputy_windows_are_absolute():
    spec = FaultSpec(deputy_crash_windows=((2.0, 3.0),))
    plan = FaultPlan(spec, seed=0, active_from=float("inf"))
    # Crash windows are experimenter-scheduled absolute times: they do
    # not wait for the resume-time activation.
    assert plan.deputy_down(2.5)
    assert not plan.deputy_down(3.0)
    assert plan.deputy_restart_time(2.5) == 3.0
    with pytest.raises(FaultInjectionError):
        plan.deputy_restart_time(10.0)


def test_draw_records_nothing_but_log_collects_events():
    # The plan itself only draws; LossyDirection logs.  But the shared
    # log object is reachable from the plan for wiring checks.
    log = FaultInjectionLog()
    plan = FaultPlan(FaultSpec(loss_rate=1.0), seed=0, log=log)
    plan.draw("ch", 0.0)
    assert log.summary() == {}
