"""NodeFaultPlan: validation, schedule determinism, and stats properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NodeFaultSpec
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults import NodeFaultPlan, NodeFaultStats, validate_windows

NODES = ("home", "dest", "fs")


def make_plan(windows=(), protected=("fs",), seed=0, **spec_kwargs):
    spec = NodeFaultSpec(crash_windows=tuple(windows), **spec_kwargs)
    return NodeFaultPlan(spec, seed=seed, nodes=NODES, protected=protected)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_validate_windows_accepts_sorted_disjoint():
    assert validate_windows([(0.0, 1.0), (1.0, 2.0), (5.0, 6.0)]) == (
        (0.0, 1.0),
        (1.0, 2.0),
        (5.0, 6.0),
    )


def test_validate_windows_rejects_empty_or_inverted():
    with pytest.raises(ConfigurationError, match="empty or inverted"):
        validate_windows([(1.0, 1.0)])
    with pytest.raises(ConfigurationError, match="empty or inverted"):
        validate_windows([(2.0, 1.0)])


def test_validate_windows_rejects_unsorted():
    with pytest.raises(ConfigurationError, match="unsorted"):
        validate_windows([(5.0, 6.0), (0.0, 1.0)])


def test_validate_windows_rejects_overlap():
    with pytest.raises(ConfigurationError, match="overlap"):
        validate_windows([(0.0, 2.0), (1.0, 3.0)])


def test_validate_windows_rejects_non_pairs():
    with pytest.raises(ConfigurationError, match="pairs"):
        validate_windows([(0.0, 1.0, 2.0)])


def test_plan_rejects_unknown_node_window():
    with pytest.raises(ConfigurationError, match="unknown"):
        make_plan([("nope", 0.0, 1.0)])


def test_plan_rejects_protected_node_window():
    with pytest.raises(ConfigurationError, match="protected"):
        make_plan([("fs", 0.0, 1.0)])


def test_plan_rejects_unknown_eligible_node():
    with pytest.raises(ConfigurationError, match="unknown"):
        make_plan(nodes=("nope",), crash_rate_hz=1.0, mean_downtime_s=0.2, horizon_s=1.0)


def test_plan_rejects_protected_eligible_node():
    with pytest.raises(ConfigurationError, match="protected"):
        make_plan(nodes=("fs",), crash_rate_hz=1.0, mean_downtime_s=0.2, horizon_s=1.0)


def test_plan_rejects_overlapping_windows_per_node():
    with pytest.raises(ConfigurationError, match="overlap"):
        make_plan([("dest", 0.0, 2.0), ("dest", 1.0, 3.0)])


# ----------------------------------------------------------------------
# schedule semantics
# ----------------------------------------------------------------------


def test_down_is_half_open():
    plan = make_plan([("dest", 1.0, 2.0)])
    assert not plan.down("dest", 0.999)
    assert plan.down("dest", 1.0)
    assert plan.down("dest", 1.999)
    assert not plan.down("dest", 2.0)
    assert not plan.down("home", 1.5)


def test_first_crash_in_and_crashed_in():
    plan = make_plan([("dest", 1.0, 2.0), ("dest", 5.0, 6.0)])
    assert plan.first_crash_in("dest", 0.0, 10.0) == 1.0
    assert plan.first_crash_in("dest", 1.5, 10.0) == 5.0
    assert plan.first_crash_in("dest", 6.0, 10.0) is None
    assert plan.crashed_in("dest", 0.0, 1.5)
    # The interval is half-open: a crash exactly at t1 is not inside.
    assert not plan.crashed_in("dest", 0.0, 1.0)
    assert not plan.crashed_in("home", 0.0, 10.0)


def test_restart_time():
    plan = make_plan([("dest", 1.0, 2.0)])
    assert plan.restart_time("dest", 1.5) == 2.0
    with pytest.raises(FaultInjectionError):
        plan.restart_time("dest", 0.5)


def test_crash_start():
    plan = make_plan([("dest", 1.0, 2.0), ("dest", 3.0, 4.0)])
    assert plan.crash_start("dest", 1.0) == 1.0
    assert plan.crash_start("dest", 3.5) == 3.0
    for node, t in (("dest", 2.0), ("home", 1.5)):
        with pytest.raises(FaultInjectionError):
            plan.crash_start(node, t)


def test_boundaries_sorted():
    plan = make_plan([("dest", 1.0, 2.0), ("home", 0.5, 0.8)])
    bounds = plan.boundaries()
    assert bounds == [
        (0.5, "home", True),
        (0.8, "home", False),
        (1.0, "dest", True),
        (2.0, "dest", False),
    ]


def test_inactive_plan_when_no_windows_materialize():
    # A spec that is "active" but whose horizon admits no draw yields an
    # inactive plan — the runtime then skips the machinery entirely.
    plan = make_plan(crash_rate_hz=0.001, mean_downtime_s=0.1, horizon_s=1e-9)
    assert not plan.active
    assert plan.faulty_nodes == ()


# ----------------------------------------------------------------------
# determinism and non-overlap properties
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=0.1, max_value=10.0),
    downtime=st.floats(min_value=0.01, max_value=2.0),
    horizon=st.floats(min_value=0.1, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
def test_same_seed_same_schedule(seed, rate, downtime, horizon):
    kwargs = dict(crash_rate_hz=rate, mean_downtime_s=downtime, horizon_s=horizon)
    a = make_plan(seed=seed, **kwargs)
    b = make_plan(seed=seed, **kwargs)
    for node in NODES:
        assert a.windows_for(node) == b.windows_for(node)
    assert a.boundaries() == b.boundaries()


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=0.1, max_value=10.0),
    downtime=st.floats(min_value=0.01, max_value=2.0),
    horizon=st.floats(min_value=0.1, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
def test_windows_never_overlap_and_start_inside_horizon(seed, rate, downtime, horizon):
    plan = make_plan(seed=seed, crash_rate_hz=rate, mean_downtime_s=downtime, horizon_s=horizon)
    for node in NODES:
        windows = plan.windows_for(node)
        for start, end in windows:
            assert start < end
            assert start < horizon
        for (_, a_end), (b_start, _) in zip(windows, windows[1:]):
            assert b_start > a_end  # disjoint AND sorted
    # The protected node never crashes under a seeded schedule.
    assert plan.windows_for("fs") == ()


@given(
    explicit=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),
            st.floats(min_value=0.01, max_value=2.0),
        ),
        min_size=0,
        max_size=5,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_explicit_and_seeded_windows_merge_disjoint(explicit, seed):
    """Union of explicit and seeded schedules stays sorted and disjoint."""
    windows = []
    t = 0.0
    for gap, length in explicit:
        start = t + gap
        windows.append(("dest", start, start + length))
        t = start + length + 1e-6
    plan = make_plan(
        windows, seed=seed, crash_rate_hz=2.0, mean_downtime_s=0.2, horizon_s=5.0
    )
    for node in NODES:
        merged = plan.windows_for(node)
        for start, end in merged:
            assert start < end
        for (_, a_end), (b_start, _) in zip(merged, merged[1:]):
            assert b_start > a_end


# ----------------------------------------------------------------------
# NodeFaultStats
# ----------------------------------------------------------------------


def test_stats_start_at_zero():
    stats = NodeFaultStats()
    assert all(v == 0 for v in stats.as_dict().values())


def test_record_detection_rejects_negative():
    with pytest.raises(ValueError):
        NodeFaultStats().record_detection(-1e-9)


def test_as_dict_surfaces_per_node_detection_latency():
    """`cluster run --json` embeds as_dict() verbatim, so the per-node
    detection latencies must ride it whenever a detection was recorded."""
    stats = NodeFaultStats()
    assert "detection_latency_by_node" not in stats.as_dict()
    stats.record_detection(0.2, node="home")
    stats.record_detection(0.4, node="home")
    stats.record_detection(0.3, node="n1")
    out = stats.as_dict()
    assert out["mean_detection_latency_s"] == pytest.approx(0.3)
    assert out["detection_latency_by_node"] == {
        "home": pytest.approx(0.3),
        "n1": pytest.approx(0.3),
    }
    assert out["detections_by_node"] == {"home": 2, "n1": 1}


@given(
    latencies=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=0, max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_detection_counters_monotone(latencies):
    """Every counter only ever increases, and the mean divides exactly."""
    stats = NodeFaultStats()
    previous = stats.as_dict()
    for latency in latencies:
        stats.record_detection(latency)
        stats.suspicions += 1
        snapshot = stats.as_dict()
        for key in (
            "detections",
            "detection_latency_total_s",
            "suspicions",
        ):
            assert snapshot[key] >= previous[key]
        previous = snapshot
    assert stats.detections == len(latencies)
    if latencies:
        assert stats.mean_detection_latency_s == pytest.approx(
            sum(latencies) / len(latencies)
        )
    else:
        assert stats.mean_detection_latency_s == 0.0
