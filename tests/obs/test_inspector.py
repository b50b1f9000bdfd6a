"""Unit tests for the live inspector and gauge sets (repro.obs.inspector)."""

from __future__ import annotations

import math
from functools import partial

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Observability, SpanTracer
from repro.obs.inspector import GaugeSet, RunInspector

#: Degenerate sampling intervals: NaN, infinite, zero and negative.
BAD_INTERVALS = (math.nan, math.inf, 0.0, -1.0)


class TestRunInspector:
    def test_interval_must_be_positive(self):
        for interval_s in BAD_INTERVALS:
            with pytest.raises(ConfigurationError):
                RunInspector(interval_s)
            with pytest.raises(ConfigurationError):
                Observability.enabled(inspect_interval_s=interval_s)

    def test_snapshots_on_boundary_crossings(self):
        insp = RunInspector(1.0)
        for t in (0.0, 0.4, 1.1, 1.5, 2.2):
            insp.on_sim_event(t)
        # Crossings at 0.0, 1.1 and 2.2; 0.4 and 1.5 are inside a window.
        assert [s["t"] for s in insp.snapshots] == [0.0, 1.1, 2.2]
        assert insp.events_seen == 5

    def test_idle_gap_emits_single_snapshot(self):
        insp = RunInspector(0.1)
        insp.on_sim_event(0.0)
        insp.on_sim_event(50.0)  # long idle gap: no backlog of samples
        assert len(insp.snapshots) == 2

    def test_probes_sampled(self):
        insp = RunInspector(1.0)
        state = {"v": 0.0}
        insp.add_probe("depth", lambda: state["v"])
        insp.on_sim_event(0.0)
        state["v"] = 3.0
        insp.on_sim_event(1.5)
        assert insp.snapshots[0]["depth"] == 0.0
        assert insp.snapshots[1]["depth"] == 3.0

    def test_echo_receives_formatted_lines(self):
        lines: list[str] = []
        insp = RunInspector(1.0, echo=lines.append)
        insp.add_probe("x", lambda: 7.0)
        insp.on_sim_event(0.0)
        assert len(lines) == 1
        assert lines[0].startswith("[inspect]")
        assert "x=7" in lines[0]

    def test_zero_duration_run_sees_no_events(self):
        insp = RunInspector(1.0)
        assert insp.snapshots == []
        assert insp.events_seen == 0

    def test_interval_longer_than_run_snapshots_once(self):
        insp = RunInspector(100.0)
        for t in (0.0, 0.5, 1.0, 2.0):
            insp.on_sim_event(t)
        assert [s["t"] for s in insp.snapshots] == [0.0]
        assert insp.events_seen == 4

    def test_snapshots_deterministic_across_identical_runs(self):
        def drive():
            insp = RunInspector(0.5)
            insp.add_probe("v", lambda: 3.0)
            for t in (0.0, 0.3, 0.6, 1.7, 1.7, 2.0):
                insp.on_sim_event(t)
            return insp.snapshots

        assert drive() == drive()


class TestMultiMigrantRun:
    """One inspector watches a whole multi-migrant run."""

    def test_counts_each_event_once_and_probes_sum_every_migrant(self, monkeypatch):
        from repro.cluster.session import ScenarioRuntime
        from repro.cluster.topology import DEST, HOME, MigrantSpec, NodeGraph, ScenarioSpec
        from repro.migration.ampom import AmpomMigration
        from repro.sim import Simulator
        from repro.units import mib
        from repro.workloads.synthetic import SequentialWorkload

        obs = Observability.enabled(trace=False, metrics=False, inspect_interval_s=0.005)
        inspector = obs.inspector
        migrants = tuple(
            MigrantSpec(SequentialWorkload(mib(2), sweeps=1), AmpomMigration())
            for _ in range(3)
        )
        run = ScenarioRuntime(ScenarioSpec(NodeGraph((HOME, DEST)), migrants), obs=obs)
        # A counting observer registered first sees every event; the
        # spies read its count when the inspector is attached and
        # detached.
        fired = [0]
        run.sim.add_observer(lambda t: fired.__setitem__(0, fired[0] + 1))
        attached, detached = [], []
        add, remove = Simulator.add_observer, Simulator.remove_observer

        def spy_add(sim, observer):
            if observer == inspector.on_sim_event:
                attached.append(fired[0])
            add(sim, observer)

        def spy_remove(sim, observer):
            if observer == inspector.on_sim_event:
                detached.append(fired[0])
            remove(sim, observer)

        monkeypatch.setattr(Simulator, "add_observer", spy_add)
        monkeypatch.setattr(Simulator, "remove_observer", spy_remove)
        results = run.execute()

        assert len(attached) == 1 and len(detached) == 1
        assert inspector.events_seen == detached[0] - attached[0] > 0
        # A snapshot taken after the run reads every migrant's final state.
        inspector.on_sim_event(float("inf"))
        final = inspector.snapshots[-1]
        assert final["major_faults"] == sum(r.counters.major_faults for r in results)
        assert final["prefetched"] == sum(r.counters.pages_prefetched for r in results)
        assert final["stall_s"] == pytest.approx(sum(r.budget.stall for r in results))
        assert final["compute_s"] == pytest.approx(sum(r.budget.compute for r in results))
        assert min(r.counters.pages_prefetched for r in results) > 0


def _queue_gauge(fn, interval_s, metrics=None, tracer=None):
    """The deputy queue-depth gauge's shape: one GaugeSet whose entries
    write a metrics gauge and a tracer counter track."""
    gauge = GaugeSet(interval_s)
    if metrics is not None:
        gauge.add(fn, partial(metrics.sample_gauge, "queue"))
    if tracer is not None:
        gauge.add(fn, partial(tracer.counter, "home/deputy", "queue"))
    return gauge


class TestGaugeSampler:
    def test_writes_metrics_and_counter_track(self):
        metrics = MetricsRegistry()
        tracer = SpanTracer()
        state = {"v": 1.0}
        sampler = _queue_gauge(lambda: state["v"], 0.5, metrics=metrics, tracer=tracer)
        sampler.on_sim_event(0.0)
        state["v"] = 2.0
        sampler.on_sim_event(0.2)  # inside the window: skipped
        sampler.on_sim_event(0.7)
        assert metrics.gauge_samples("queue") == [(0.0, 1.0), (0.7, 2.0)]
        assert [(c.track, c.name, c.time, c.value) for c in tracer.counters] == [
            ("home/deputy", "queue", 0.0, 1.0),
            ("home/deputy", "queue", 0.7, 2.0),
        ]

    def test_interval_must_be_positive(self):
        for interval_s in BAD_INTERVALS:
            with pytest.raises(ConfigurationError):
                GaugeSet(interval_s)

    def test_zero_duration_run_records_nothing(self):
        metrics = MetricsRegistry()
        _queue_gauge(lambda: 1.0, 0.5, metrics=metrics)
        assert metrics.gauge_samples("queue") == []

    def test_interval_longer_than_run_samples_once(self):
        metrics = MetricsRegistry()
        sampler = _queue_gauge(lambda: 1.0, 100.0, metrics=metrics)
        for t in (0.0, 0.5, 1.0, 2.0):
            sampler.on_sim_event(t)
        assert metrics.gauge_samples("queue") == [(0.0, 1.0)]
