"""Unit tests for the histogram/metrics registry (repro.obs.metrics), and
the registry a multi-migrant run fills."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import build_preset, two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.obs import Observability
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload


class TestHistogram:
    def test_empty_summary_is_zero_filled(self):
        s = Histogram("x").summary()
        assert s == {
            "count": 0,
            "min": 0.0,
            "max": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_empty_percentile_is_zero(self):
        assert Histogram("x").percentile(99) == 0.0

    def test_nearest_rank_percentiles(self):
        h = Histogram("x")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0

    def test_single_observation(self):
        h = Histogram("x")
        h.observe(7.0)
        s = h.summary()
        assert s["count"] == 1
        assert s["min"] == s["max"] == s["mean"] == s["p50"] == s["p99"] == 7.0

    def test_unsorted_input(self):
        h = Histogram("x")
        for v in (5.0, 1.0, 3.0):
            h.observe(v)
        assert h.percentile(50) == 3.0
        assert h.summary()["min"] == 1.0


class TestRegistry:
    def test_histogram_created_on_demand(self):
        reg = MetricsRegistry()
        reg.histogram("stall_s").observe(0.5)
        assert reg.histogram("stall_s").count == 1
        assert set(reg.histograms) == {"stall_s"}

    def test_counters(self):
        reg = MetricsRegistry()
        reg.count("faults")
        reg.count("faults", 2.0)
        reg.set_counter("accuracy", 0.9)
        assert reg.counter_values == {"faults": 3.0, "accuracy": 0.9}

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.sample_gauge("queue", 0.0, 1.0)
        reg.sample_gauge("queue", 0.1, 2.0)
        assert reg.gauge_samples("queue") == [(0.0, 1.0), (0.1, 2.0)]
        assert reg.gauge_samples("missing") == []

    def test_summary_is_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        reg.count("c")
        reg.sample_gauge("g", 0.0, 5.0)
        s = reg.summary()
        json.dumps(s)  # must not raise
        assert s["histograms"]["h"]["count"] == 1
        assert s["counters"]["c"] == 1.0
        assert s["gauges"]["g"]["samples"] == 1
        assert s["gauges"]["g"]["mean"] == 5.0

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render()

    def test_render_has_headers(self):
        reg = MetricsRegistry()
        reg.histogram("stall_s").observe(0.25)
        reg.set_counter("wasted_pages", 3.0)
        out = reg.render()
        assert "p95" in out
        assert "stall_s" in out
        assert "wasted_pages" in out


class TestPinnedValues:
    """Exact summaries of a fixed float sample set.  The values were read
    from the registry before its samples moved into a float64 array;
    storage must not change a single digit of them."""

    SAMPLES = (0.1, 0.2, 0.3, 1e-9, 2.5, 0.7, 1 / 3, 3.0e-4, 12.75, 0.05, 0.30000000000000004)

    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        for v in self.SAMPLES:
            reg.histogram("stall_s").observe(v)
        for v in (3.0, 1.0, 2.0, 40.0):
            reg.histogram("zone_size_pages").observe(v)
        for i, v in enumerate((0.0, 0.004, 0.0125, 0.001, 0.0)):
            reg.sample_gauge("deputy_queue_depth_s", i * 0.5, v)
        reg.set_counter("wasted_pages", 3.0)
        reg.set_counter("prefetch_accuracy", 0.9)
        return reg

    def test_summary_and_percentiles(self):
        h = Histogram("stall_s")
        for v in self.SAMPLES:
            h.observe(v)
        s = h.summary()
        assert s == {
            "count": 11,
            "min": 1e-09,
            "max": 12.75,
            "mean": 1.5666939394848485,
            "p50": 0.3,
            "p95": 12.75,
            "p99": 12.75,
        }
        assert all(type(v) is float for k, v in s.items() if k != "count")
        assert [h.percentile(p) for p in (1, 10, 50, 90, 95, 99, 100)] == [
            1e-09, 0.0003, 0.3, 2.5, 12.75, 12.75, 12.75,
        ]

    def test_registry_summary_includes_gauges(self):
        assert self._registry().summary() == {
            "histograms": {
                "stall_s": {
                    "count": 11, "min": 1e-09, "max": 12.75,
                    "mean": 1.5666939394848485, "p50": 0.3, "p95": 12.75, "p99": 12.75,
                },
                "zone_size_pages": {
                    "count": 4, "min": 1.0, "max": 40.0,
                    "mean": 11.5, "p50": 2.0, "p95": 40.0, "p99": 40.0,
                },
            },
            "counters": {"wasted_pages": 3.0, "prefetch_accuracy": 0.9},
            "gauges": {
                "deputy_queue_depth_s": {
                    "samples": 5, "count": 5, "min": 0.0, "max": 0.0125,
                    "mean": 0.0035000000000000005, "p50": 0.001, "p95": 0.0125,
                    "p99": 0.0125,
                },
            },
        }

    def test_render(self):
        assert self._registry().render() == "\n".join(
            [
                "              metric   n    min    mean    p50    p95    p99    max",
                "--------------------  --  -----  ------  -----  -----  -----  -----",
                "             stall_s  11  1e-09   1.567    0.3  12.75  12.75  12.75",
                "     zone_size_pages   4      1    11.5      2     40     40     40",
                "deputy_queue_depth_s   5      0  0.0035  0.001  0.013  0.013  0.013",
                "",
                "          counter  value",
                "-----------------  -----",
                "     wasted_pages      3",
                "prefetch_accuracy    0.9",
            ]
        )


class TestRunWideMetrics:
    """Three migrants share one registry in the ``contention`` preset."""

    @pytest.fixture(scope="class")
    def contention(self):
        spec = build_preset("contention", seed=0)
        obs = Observability.enabled(trace=False, metrics=True)
        results = ScenarioRuntime(spec, obs=obs).execute()
        return spec, results, obs.metrics

    def test_prefetch_counters_sum_every_migrant(self, contention):
        _, results, metrics = contention
        assert len(results) == 3
        prefetched = sum(r.counters.pages_prefetched for r in results)
        wasted = sum(r.wasted_pages for r in results)
        counters = metrics.counter_values
        assert counters["pages_prefetched"] == float(prefetched)
        assert counters["pages_demand_fetched"] == float(
            sum(r.counters.pages_demand_fetched for r in results)
        )
        assert counters["wasted_pages"] == float(wasted)
        # Accuracy and waste come from the sums, per policy label too.
        accuracy = max(prefetched - wasted, 0) / prefetched
        assert counters["prefetch_accuracy"] == accuracy
        assert counters["prefetch_waste_fraction"] == wasted / prefetched
        label = f'{{policy="{results[0].prefetch_policy}"}}'
        assert {r.prefetch_policy for r in results} == {results[0].prefetch_policy}
        assert counters["prefetch_accuracy" + label] == accuracy

    def test_one_queue_depth_series_per_deputy(self, contention):
        spec, _, metrics = contention
        gauges = metrics.gauges
        assert set(gauges) == {
            f'deputy_queue_depth_s{{deputy="home/{m.name}"}}' for m in spec.migrants
        }
        for samples in gauges.values():
            times = [t for t, _ in samples]
            assert times and len(times) == len(set(times))

    def test_lone_migrant_keeps_the_bare_series(self):
        obs = Observability.enabled(trace=False, metrics=True)
        spec = two_node_spec(SequentialWorkload(mib(1), sweeps=1), AmpomMigration())
        result = ScenarioRuntime(spec, obs=obs).execute()[0]
        assert set(obs.metrics.gauges) == {"deputy_queue_depth_s"}
        counters = obs.metrics.counter_values
        assert counters["pages_prefetched"] == float(result.counters.pages_prefetched)
