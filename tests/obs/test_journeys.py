"""Migration journey traces: causal logs, reconciliation, Perfetto export."""

from __future__ import annotations

import json

import pytest

from repro.obs import Observability
from repro.obs.journeys import (
    JOURNEY_PID,
    JourneyLog,
    journey_trace_events,
    write_journeys_perfetto,
)


def _armed():
    return Observability.enabled(
        trace=False, metrics=False, fleet=False, journeys=True
    )


def _sample_log():
    jlog = JourneyLog()
    jlog.start("m0", 0.0, src="n0")
    jlog.record("m0", "decision", 0.2, dst="n1", gossip_load=0.5)
    jlog.record("m0", "freeze", 0.3, hop="n0->n1", dur_s=0.1)
    jlog.finish("m0", 1.0, "completed")
    jlog.start("m1", 0.5, src="n2")
    jlog.record("m1", "freeze", 0.6, hop="n2->n0", dur_s=0.25)
    jlog.finish("m1", 0.9, "killed")
    jlog.on_detection(0.16, node="home", at=0.7)
    return jlog


class TestJourneyLog:
    def test_start_is_idempotent(self):
        jlog = JourneyLog()
        jlog.start("m0", 0.0, src="n0")
        jlog.start("m0", 5.0, src="n9")
        (j,) = jlog.journeys.values()
        assert j.arrival_t == 0.0
        assert j.events[0].kind == "arrival"
        assert len(j.events) == 1

    def test_record_before_start_creates_journey_lazily(self):
        jlog = JourneyLog()
        jlog.record("ghost", "freeze", 1.0, dur_s=0.1)
        assert jlog.count("freeze") == 1

    def test_finish_sets_outcome_and_terminal_event(self):
        jlog = _sample_log()
        m0 = jlog.journeys["m0"]
        assert m0.outcome == "completed"
        assert m0.end_t == 1.0
        assert m0.events[-1].kind == "completed"
        assert m0.wall_s == 1.0

    def test_counts_and_aggregates(self):
        jlog = _sample_log()
        assert jlog.count("completed") == 1
        assert jlog.count("killed") == 1
        assert jlog.count("freeze") == 2
        assert jlog.count_cluster("crash_detect") == 1
        assert sorted(jlog.freeze_seconds()) == [0.1, 0.25]
        assert sorted(jlog.wall_times()) == pytest.approx([0.4, 1.0])

    def test_detection_event_carries_latency(self):
        jlog = _sample_log()
        (ev,) = [e for e in jlog.cluster_events if e.kind == "crash_detect"]
        assert ev.t == 0.7
        assert ev.args["latency_s"] == 0.16
        assert ev.args["node"] == "home"

    def test_jsonl_lines_roundtrip(self, tmp_path):
        jlog = _sample_log()
        path = tmp_path / "journeys.jsonl"
        assert jlog.write_jsonl(str(path)) == len(jlog.to_jsonl_lines())
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["task"] for r in rows} == {"m0", "m1", None}
        (m0,) = [r for r in rows if r["task"] == "m0"]
        assert m0["outcome"] == "completed"
        assert [e["kind"] for e in m0["events"]] == [
            "arrival", "decision", "freeze", "completed",
        ]
        (cluster,) = [r for r in rows if r["task"] is None]
        assert cluster["events"][0]["kind"] == "crash_detect"


class TestReconcile:
    def _report(self, arrivals=2, migrations=1, completed=0):
        ns = {"arrivals": arrivals, "migrations": migrations, "completed": completed}
        return type("R", (), ns)()

    def test_clean_log_reconciles(self):
        jlog = _sample_log()
        jlog.record("m0", "plan_complete", 0.25)
        assert jlog.reconcile(report=self._report(completed=1)) == []

    def test_mismatch_is_reported_not_hidden(self):
        jlog = _sample_log()
        mismatches = jlog.reconcile(report=self._report(arrivals=5))
        assert len(mismatches) == 1
        assert "arrivals" in mismatches[0]
        assert "journeys=2" in mismatches[0]
        assert "counter=5" in mismatches[0]


class TestSustainedReconciliation:
    def test_every_journey_reconciles_exactly(self):
        from repro.cluster.sustained import run_sustained
        from repro.cluster.topology import build_preset

        obs = _armed()
        res = run_sustained(build_preset("cluster_32", seed=3), obs=obs)
        jlog = obs.journeys
        assert jlog.count("arrival") == res.report.arrivals
        assert jlog.reconcile(report=res.report) == []

    def test_completed_journey_hops_equal_its_freezes(self):
        """``hops`` counts the hops a migrant took, one freeze each; a
        task that never left its node completes with no freeze."""
        from repro.cluster.sustained import run_sustained
        from repro.cluster.topology import build_preset

        obs = _armed()
        run_sustained(build_preset("cluster_32", seed=7), obs=obs)
        completed = [
            j for j in obs.journeys.journeys.values() if j.outcome == "completed"
        ]
        assert any(j.count("freeze") for j in completed)
        for journey in completed:
            assert journey.events[-1].args["hops"] == journey.count("freeze"), journey.task


class TestChaosJourneys:
    def test_kill_and_detection_counts_match_chaos_counters(self):
        # pair/AMPoM/seed=1 deterministically crashes the home node with
        # the migrant away: one kill, one detection.
        from repro.cluster.chaos import chaos_cell

        obs = _armed()
        run, violation = chaos_cell("pair", "AMPoM", seed=1, obs=obs)
        assert violation is None
        jlog = obs.journeys
        assert jlog.count("killed") == run.kills == 1
        assert jlog.count_cluster("crash_detect") == run.detections == 1
        (ev,) = [e for e in jlog.cluster_events if e.kind == "crash_detect"]
        assert ev.args["latency_s"] == pytest.approx(
            run.detection_latency_by_node[ev.args["node"]]
        )


class TestPerfettoExport:
    def test_trace_event_structure(self):
        events = journey_trace_events(_sample_log())
        assert all(e["pid"] == JOURNEY_PID for e in events)
        phases = {e["ph"] for e in events}
        assert {"M", "X", "s", "f", "i"} <= phases
        body = [e for e in events if e["ph"] != "M"]
        assert body == sorted(body, key=lambda e: e["ts"])

    def test_flow_arrows_link_multi_hop_journeys(self):
        jlog = JourneyLog()
        jlog.start("m0", 0.0, src="n0")
        jlog.record("m0", "freeze", 0.1, hop="n0->n1", dur_s=0.2)
        jlog.record("m0", "freeze", 0.5, hop="n1->n2", dur_s=0.2)
        jlog.finish("m0", 1.0, "completed")
        events = journey_trace_events(jlog)
        flow_phases = [e["ph"] for e in events if e["ph"] in ("s", "t", "f")]
        # One flow step per event: start, two mids, one binding-point end.
        assert flow_phases.count("s") == 1
        assert flow_phases.count("t") == 2
        assert flow_phases.count("f") == 1
        (end,) = [e for e in events if e["ph"] == "f"]
        assert end["bp"] == "e"

    def test_single_event_journey_has_no_flow(self):
        jlog = JourneyLog()
        jlog.start("m0", 0.0)
        events = journey_trace_events(jlog)
        assert not [e for e in events if e["ph"] in ("s", "t", "f")]

    def test_write_perfetto_is_loadable_json(self, tmp_path):
        path = tmp_path / "journeys.json"
        write_journeys_perfetto(_sample_log(), str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
