"""Fleet telemetry: rings, collector, gauges, exporters, byte-identity."""

from __future__ import annotations

import copy
import json
import math
import pickle
import tracemalloc
from collections import deque
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.fleet import DEFAULT_RING_CAPACITY, FleetTelemetry, SeriesRing
from repro.obs.inspector import GaugeSet


def _armed(fleet=True, journeys=False):
    return Observability.enabled(
        trace=False, metrics=False, fleet=fleet, journeys=journeys
    )


#: Degenerate sampling intervals every interval field must refuse.
BAD_INTERVALS = (math.nan, math.inf, 0.0, -1.0)
#: Degenerate ring capacities: non-positive, or not an int at all.
BAD_CAPACITIES = (0, -1, 2.5)

#: Sample floats.  The listed edge cases keep signed zero, subnormals, the
#: largest finite doubles and the infinities in every derandomized draw.
_SAMPLE_FLOATS = st.one_of(
    st.sampled_from(
        [-0.0, 5e-324, -2.2250738585072014e-309, 1.7976931348623157e308, -1e300,
         math.inf, -math.inf]
    ),
    st.floats(allow_nan=False),
)


def _bits(pairs):
    """``(t, value)`` pairs keyed by exact bit pattern (so -0.0 != 0.0)."""
    return [(t.hex(), v.hex()) for t, v in pairs]


class TestSeriesRing:
    def test_capacity_must_be_positive(self):
        for capacity in BAD_CAPACITIES:
            with pytest.raises(ConfigurationError):
                SeriesRing(capacity)

    def test_push_and_read_in_order(self):
        ring = SeriesRing(4)
        for i in range(3):
            ring.push(float(i), float(i * 10))
        assert ring.samples() == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]
        assert ring.last == (2.0, 20.0)
        assert len(ring) == 3
        assert ring.dropped == 0

    def test_eviction_counts_dropped_and_keeps_newest(self):
        ring = SeriesRing(3)
        for i in range(5):
            ring.push(float(i), float(i))
        assert ring.dropped == 2
        assert ring.samples() == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
        assert len(ring) == 3

    def test_empty_ring_has_no_last(self):
        assert SeriesRing(2).last is None
        assert SeriesRing(2).samples() == []

    @given(
        capacity=st.integers(1, 8),
        pushes=st.lists(st.tuples(_SAMPLE_FLOATS, _SAMPLE_FLOATS), max_size=40),
    )
    def test_matches_a_bounded_deque(self, capacity, pushes):
        ring = SeriesRing(capacity)
        ref: deque = deque(maxlen=capacity)
        for count, (t, value) in enumerate(pushes, 1):
            ring.push(t, value)
            ref.append((t, value))
            assert _bits(ring.samples()) == _bits(ref)
            assert _bits([ring.last]) == _bits([ref[-1]])
            assert len(ring) == len(ref)
            assert ring.dropped == count - len(ref)

    def test_short_rings_cost_only_their_samples(self):
        # 200 rings at the default capacity holding 3 samples each: a ring
        # that allocated its capacity up front would take 12.5 MB here.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rings = [SeriesRing(DEFAULT_RING_CAPACITY) for _ in range(200)]
            for ring in rings:
                for i in range(3):
                    ring.push(float(i), float(i))
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(len(ring) for ring in rings) == 600
        assert allocated < 1_000_000

    def test_wrapped_ring_survives_pickle_and_deepcopy(self):
        ring = SeriesRing(3)
        for i in range(5):
            ring.push(float(i), float(-i))
        for clone in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
            assert clone.samples() == ring.samples()
            assert clone.last == ring.last == (4.0, -4.0)
            assert (clone.capacity, clone.dropped, len(clone)) == (3, 2, 3)
            clone.push(5.0, -5.0)
            assert clone.samples() == [(3.0, -3.0), (4.0, -4.0), (5.0, -5.0)]
            assert clone.dropped == 3
        assert ring.samples() == [(2.0, -2.0), (3.0, -3.0), (4.0, -4.0)]


class TestFleetTelemetry:
    def test_push_creates_rings_lazily(self):
        fleet = FleetTelemetry()
        fleet.push("n1", "load", 0.0, 2.0)
        fleet.push("n0", "load", 0.0, 1.0)
        fleet.push("n1", "queue", 1.0, 3.0)
        assert fleet.nodes() == ["n0", "n1"]
        assert fleet.series_names() == ["load", "queue"]
        assert fleet.series("n1", "load") == [(0.0, 2.0)]
        assert fleet.series("n1", "missing") == []

    def test_latest_and_dropped(self):
        fleet = FleetTelemetry(capacity=2)
        for i in range(4):
            fleet.push("n0", "load", float(i), float(i))
        assert fleet.latest() == {("n0", "load"): 3.0}
        assert fleet.dropped_samples() == 2

    def test_capacity_and_interval_validation(self):
        for capacity in BAD_CAPACITIES:
            with pytest.raises(ConfigurationError):
                FleetTelemetry(capacity=capacity)
        for interval_s in BAD_INTERVALS:
            with pytest.raises(ConfigurationError):
                FleetTelemetry(interval_s=interval_s)
        assert FleetTelemetry().capacity == DEFAULT_RING_CAPACITY

    def test_jsonl_rows_sorted_by_node_series_then_time(self):
        fleet = FleetTelemetry()
        fleet.push("n1", "load", 0.0, 1.0)
        fleet.push("n0", "load", 0.0, 2.0)
        fleet.push("n0", "load", 1.0, 3.0)
        rows = [json.loads(line) for line in fleet.to_jsonl_lines()]
        assert [(r["node"], r["series"], r["t"]) for r in rows] == [
            ("n0", "load", 0.0),
            ("n0", "load", 1.0),
            ("n1", "load", 0.0),
        ]

    def test_write_jsonl_roundtrip(self, tmp_path):
        fleet = FleetTelemetry()
        fleet.push("n0", "load", 0.5, 1.0)
        path = tmp_path / "fleet.jsonl"
        assert fleet.write_jsonl(str(path)) == 1
        assert json.loads(path.read_text()) == {
            "node": "n0", "series": "load", "t": 0.5, "v": 1.0
        }

    def test_prometheus_snapshot_shape(self):
        fleet = FleetTelemetry()
        fleet.push("n0", "load", 0.0, 1.0)
        fleet.push("n1", "load", 0.0, 2.5)
        text = fleet.prometheus_text(extra={"slo_breaches": 3.0})
        lines = text.splitlines()
        assert "# TYPE repro_fleet_load gauge" in lines
        assert 'repro_fleet_load{node="n0"} 1' in lines
        assert 'repro_fleet_load{node="n1"} 2.5' in lines
        assert "repro_fleet_slo_breaches 3" in lines
        assert lines[-1] == "repro_fleet_dropped_samples 0"

    def test_prometheus_sanitizes_series_names(self):
        fleet = FleetTelemetry()
        fleet.push("n0", "weird-name.s", 0.0, 1.0)
        assert "repro_fleet_weird_name_s" in fleet.prometheus_text()

    @pytest.mark.parametrize(
        ("value", "text"),
        [
            (32.05056450757862, "32.05056450757862"),
            (123456789.0, "123456789"),
            (-3.0, "-3"),
            (2.0**53, "9007199254740992.0"),
            (1e300, "1e+300"),
            (math.inf, "+Inf"),
            (-math.inf, "-Inf"),
            (math.nan, "NaN"),
        ],
    )
    def test_prometheus_values_parse_back_exactly(self, value, text):
        fleet = FleetTelemetry()
        fleet.push("n0", "s", 0.0, value)
        lines = fleet.prometheus_text(extra={"x": value}).splitlines()
        assert f'repro_fleet_s{{node="n0"}} {text}' in lines
        assert f"repro_fleet_x {text}" in lines
        assert float(text).hex() == value.hex()


def _gauges(fleet, interval_s, *entries):
    """A GaugeSet feeding ``(node, series, fn)`` entries into ``fleet``."""
    gauges = GaugeSet(interval_s)
    for node, series, fn in entries:
        gauges.add(fn, partial(fleet.push, node, series))
    return gauges


class TestFleetGauges:
    """Phase-2 fleet series: GaugeSet entries whose sink is a fleet push."""

    def test_gauge_samples_on_boundary_crossings(self):
        fleet = FleetTelemetry()
        state = {"v": 1.0}
        gauge = _gauges(fleet, 1.0, ("n0", "depth", lambda: state["v"]))
        gauge.on_sim_event(0.0)
        state["v"] = 9.0
        gauge.on_sim_event(0.5)  # inside the window: skipped
        gauge.on_sim_event(1.2)
        assert fleet.series("n0", "depth") == [(0.0, 1.0), (1.2, 9.0)]

    def test_gauge_interval_must_be_positive(self):
        for interval_s in BAD_INTERVALS:
            with pytest.raises(ConfigurationError):
                GaugeSet(interval_s)

    def test_gauge_set_shares_one_boundary(self):
        fleet = FleetTelemetry()
        gauges = _gauges(fleet, 1.0, ("n0", "a", lambda: 1.0), ("n1", "b", lambda: 2.0))
        assert len(gauges) == 2
        gauges.on_sim_event(0.0)
        gauges.on_sim_event(0.5)
        gauges.on_sim_event(1.5)
        assert fleet.series("n0", "a") == [(0.0, 1.0), (1.5, 1.0)]
        assert fleet.series("n1", "b") == [(0.0, 2.0), (1.5, 2.0)]

    def test_entry_added_mid_run_waits_for_next_boundary(self):
        fleet = FleetTelemetry()
        gauges = _gauges(fleet, 1.0, ("n0", "a", lambda: 1.0))
        gauges.on_sim_event(0.0)
        gauges.add(lambda: 2.0, partial(fleet.push, "n1", "b"))
        gauges.on_sim_event(0.2)  # inside the shared window
        assert fleet.series("n1", "b") == []
        gauges.on_sim_event(1.1)
        assert fleet.series("n1", "b") == [(1.1, 2.0)]

    def test_zero_duration_run_samples_nothing(self):
        fleet = FleetTelemetry()
        _gauges(fleet, 1.0, ("n0", "a", lambda: 1.0))
        assert fleet.series("n0", "a") == []

    def test_interval_longer_than_run_samples_once(self):
        fleet = FleetTelemetry()
        gauges = _gauges(fleet, 100.0, ("n0", "a", lambda: 1.0))
        for t in (0.0, 0.5, 1.0, 2.0):
            gauges.on_sim_event(t)
        assert fleet.series("n0", "a") == [(0.0, 1.0)]


class TestSustainedIntegration:
    """Armed sustained runs: byte-identity, shared cadence, thin-view
    utilization (docs/OBSERVABILITY.md, "Fleet telemetry")."""

    def _run(self, obs=None):
        from repro.cluster.sustained import run_sustained
        from repro.cluster.topology import build_preset

        return run_sustained(build_preset("cluster_32", seed=3), obs=obs)

    def test_armed_run_byte_identical_to_unarmed(self):
        bare = self._run()
        armed_obs = _armed(fleet=True, journeys=True)
        armed = self._run(obs=armed_obs)
        assert armed.to_json() == bare.to_json()
        assert "load" in armed_obs.fleet.series_names()
        assert armed_obs.journeys.journeys

    def test_utilization_json_shape_unchanged_when_armed(self):
        # The utilization sampler's tick also pushes the fleet series:
        # its own values and serialization must not move when the
        # collector is armed.
        bare = self._run().report.to_dict()["utilization"]
        armed = self._run(obs=_armed(fleet=True)).report.to_dict()["utilization"]
        assert armed == bare
        assert all(
            isinstance(row, list) and len(row) == 4 for row in bare
        )

    def test_per_node_series_recorded_on_the_shared_cadence(self):
        obs = _armed(fleet=True)
        res = self._run(obs=obs)
        fleet = obs.fleet
        names = fleet.series_names()
        for series in (
            "load",
            "in_flight_migrations",
            "migrations_out",
            "gossip_staleness_s",
            "suspected_peers",
        ):
            assert series in names
        # Phase-1 per-node load samples ride the exact utilization ticks.
        times = [s.time for s in res.report.utilization]
        node = next(n for n in fleet.nodes() if fleet.series(n, "load"))
        assert [t for t, _ in fleet.series(node, "load")] == times
        # migrations_out is a per-node cumulative counter bounded by the
        # run's decision log.
        outs = sum(
            fleet.series(n, "migrations_out")[-1][1]
            for n in fleet.nodes()
            if fleet.series(n, "migrations_out")
        )
        assert 0 < outs <= res.report.migrations
        per_node = fleet.series(node, "migrations_out")
        assert all(
            a[1] <= b[1] for a, b in zip(per_node, per_node[1:])
        )

    def test_phase2_residency_series_present(self):
        obs = _armed(fleet=True)
        self._run(obs=obs)
        names = obs.fleet.series_names()
        for series in ("resident_pages", "remote_pages", "deputy_queue_depth_s"):
            assert series in names

    def test_prometheus_snapshot_parses_back_to_latest(self):
        from repro.cluster.sustained import run_sustained
        from repro.cluster.topology import build_preset

        obs = _armed(fleet=True)
        run_sustained(build_preset("cluster_32", seed=7), obs=obs)
        parsed = {}
        for line in obs.fleet.prometheus_text().splitlines():
            if line.startswith(("#", "repro_fleet_dropped_samples")):
                continue
            name, text = line.rsplit(" ", 1)
            metric, node = name.removesuffix('"}').split('{node="')
            parsed[(node, metric)] = float(text).hex()
        expected = {
            (node, "repro_fleet_" + series): value.hex()
            for (node, series), value in obs.fleet.latest().items()
        }
        assert parsed == expected
        # Non-integral gauges must be present, or the equality proves little.
        assert not all(float.fromhex(v).is_integer() for v in parsed.values())

    def test_golden_sustained_scenario_unperturbed_by_fleet(self):
        from repro.check.golden import SCENARIOS, run_scenario

        scenario = next(s for s in SCENARIOS if s.name == "cluster_32_threshold")
        bare = run_scenario(scenario)
        armed = run_scenario(scenario, obs=_armed(fleet=True, journeys=True))
        assert armed == bare


class TestChaosIntegration:
    def test_armed_chaos_cell_record_identical(self):
        from repro.cluster.chaos import chaos_cell

        bare, _ = chaos_cell("pair", "AMPoM", seed=1)
        armed, _ = chaos_cell(
            "pair", "AMPoM", seed=1, obs=_armed(fleet=True, journeys=True)
        )
        assert armed == bare

    def test_detection_latency_surfaced_per_node(self):
        from repro.cluster.chaos import chaos_cell

        run, violation = chaos_cell("pair", "AMPoM", seed=1)
        assert violation is None
        assert run.detections >= 1
        assert "home" in run.detection_latency_by_node
        assert run.detection_latency_by_node["home"] > 0.0


class TestHeatmapFigure:
    def test_matrix_shape_and_determinism(self):
        from repro.experiments.figures import cluster_node_heatmap

        a = cluster_node_heatmap("cluster_32", policy="threshold", seed=0)
        b = cluster_node_heatmap("cluster_32", policy="threshold", seed=0)
        assert a == b
        assert a["series"] == "load"
        assert a["nodes"]
        assert len(a["values"]) == len(a["nodes"])
        assert all(len(row) == len(a["times"]) for row in a["values"])
