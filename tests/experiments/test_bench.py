"""The throughput bench harness (repro.experiments.bench / `repro bench`)."""

from __future__ import annotations

import json

from repro.experiments import bench


def _noop():
    return None


class TestHarness:
    def test_calibration_positive(self):
        assert bench.calibrate(repeats=1) > 0.0

    def test_time_case_counts_runs(self):
        times = bench.time_case(_noop, repeats=3)
        assert len(times) == 3
        assert all(t >= 0.0 for t in times)

    def test_run_bench_record_shape(self):
        record = bench.run_bench(repeats=2, cases={"noop": _noop})
        assert record["format"] == bench.BENCH_FORMAT
        assert record["repeats"] == 2
        case = record["cases"]["noop"]
        assert case["min_s"] == min(case["times_s"])
        assert case["score"] == case["min_s"] / record["calibration_s"]

    def test_default_cases_cover_throughput_suite(self):
        assert set(bench.CASES) == {
            "local_fast",
            "demand_paging",
            "ampom_pipeline",
            "random_faults",
            "three_hop",
            "node_churn",
            "ampom_traced",
            "cluster_sustained",
            "cluster_sustained_telemetry",
            "cluster_300_smoke",
            "arena",
        }

    def test_traced_case_runs_with_obs_armed(self):
        from repro.obs import Observability

        obs = Observability.enabled()
        result = bench.CASES["ampom_traced"](obs=obs)
        assert obs.tracer.spans
        obs.tracer.verify_budget(result.budget)

    def test_write_record_roundtrip(self, tmp_path):
        record = bench.run_bench(repeats=1, cases={"noop": _noop})
        path = bench.write_record(record, tmp_path / "out" / "bench.json")
        assert json.loads(path.read_text()) == record


class TestHistory:
    def test_append_history_accumulates_lines(self, tmp_path):
        record = bench.run_bench(repeats=1, cases={"noop": _noop})
        path = tmp_path / "history.jsonl"
        bench.append_history(record, path, timestamp="2026-08-08T00:00:00+00:00")
        bench.append_history(record, path, timestamp="2026-08-08T01:00:00+00:00")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [entry["ts"] for entry in lines] == [
            "2026-08-08T00:00:00+00:00",
            "2026-08-08T01:00:00+00:00",
        ]
        entry = lines[0]
        assert entry["format"] == bench.BENCH_FORMAT
        assert set(entry["cases"]) == {"noop"}
        # Trend fields only — raw samples are deliberately dropped.
        assert set(entry["cases"]["noop"]) == {"min_s", "score"}

    def test_append_history_stamps_wallclock_when_unset(self, tmp_path):
        record = bench.run_bench(repeats=1, cases={"noop": _noop})
        path = bench.append_history(record, tmp_path / "h.jsonl")
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["ts"]


def _record(scores):
    return {
        "format": bench.BENCH_FORMAT,
        "cases": {name: {"score": s} for name, s in scores.items()},
    }


class TestRegressionGate:
    def test_within_limit_passes(self):
        base = _record({"a": 100.0, "b": 10.0})
        cur = _record({"a": 110.0, "b": 12.0})
        assert bench.compare(cur, base, max_regression=0.25) == []

    def test_breach_reported_per_case(self):
        base = _record({"a": 100.0, "b": 10.0})
        cur = _record({"a": 200.0, "b": 10.0})
        breaches = bench.compare(cur, base, max_regression=0.25)
        assert len(breaches) == 1
        assert breaches[0].startswith("a:")
        assert "2.00x" in breaches[0]

    def test_speedups_never_fail(self):
        base = _record({"a": 100.0})
        cur = _record({"a": 1.0})
        assert bench.compare(cur, base) == []

    def test_new_case_ignored_against_old_baseline(self):
        base = _record({"a": 100.0})
        cur = _record({"a": 100.0, "brand_new": 5.0})
        assert bench.compare(cur, base) == []

    def test_committed_baseline_parses(self):
        import pytest

        if not bench.DEFAULT_BASELINE.is_file():
            pytest.skip("baseline not found relative to cwd")
        baseline = json.loads(bench.DEFAULT_BASELINE.read_text())
        assert baseline["format"] == bench.BENCH_FORMAT
        assert set(bench.CASES) <= set(baseline["cases"])
