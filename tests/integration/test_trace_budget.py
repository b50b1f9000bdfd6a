"""Integration: tracer span sums reproduce the TimeBudget exactly.

The tentpole invariant of the observability layer: every bucket of
``wall = freeze + compute + stall + analysis + copy + syscall`` equals the
sequential sum of its spans' durations with **exact float equality** — no
tolerance — because each charge site records one span with the identical
float.  Any unattributed simulated time fails ``verify_budget``.

These tests also gate the pure-observer property: a traced run must be
float-identical to an untraced one, fault injection included.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import build_preset, two_node_spec
from repro.config import FaultSpec
from repro.errors import SimulationError
from repro.experiments import figures
from repro.metrics.timeline import TimeBudget
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.obs import Observability
from repro.obs.spans import DEPUTY_TRACK, MIGRANT_TRACK
from repro.units import mib
from repro.workloads.base import Syscall
from repro.workloads.synthetic import SequentialWorkload, UniformRandomWorkload


def _traced_run(workload, strategy, **kwargs):
    obs = Observability.enabled()
    result = ScenarioRuntime(two_node_spec(workload, strategy, **kwargs), obs=obs).execute()[0]
    return result, obs


def _untraced_run(workload, strategy, **kwargs):
    return ScenarioRuntime(two_node_spec(workload, strategy, **kwargs)).execute()[0]


#: Span names a deputy records.
DEPUTY_SPANS = ("serve", "syscall", "syscall_replay")


def _deputy_spans(tracer) -> dict[str, list]:
    """Every deputy span, grouped by track in recording order."""
    out: dict[str, list] = {}
    for span in tracer.spans:
        if span.name in DEPUTY_SPANS:
            out.setdefault(span.track, []).append(span)
    return out


def _overlaps(spans) -> int:
    """How many spans start before the one before them on the track ends
    (a nanosecond of slack absorbs ``start + dur`` rounding)."""
    spans = sorted(spans, key=lambda s: s.start)
    return sum(b.start < a.end - 1e-9 for a, b in zip(spans, spans[1:]))


class TestSpanSumsEqualBudget:
    @pytest.mark.parametrize(
        "strategy",
        [AmpomMigration, NoPrefetchMigration, OpenMosixMigration],
        ids=["AMPoM", "NoPrefetch", "openMosix"],
    )
    def test_every_bucket_span_exact(self, strategy):
        result, obs = _traced_run(SequentialWorkload(mib(2), sweeps=2), strategy())
        obs.tracer.verify_budget(result.budget)  # raises on any mismatch
        sums = obs.tracer.bucket_sums()
        for bucket, charged in result.budget.as_dict().items():
            assert sums.get(bucket, 0.0) == charged  # exact, no approx

    def test_syscall_bucket_covered(self):
        result, obs = _traced_run(
            SequentialWorkload(
                mib(2), sweeps=2, syscall_every_sweep=Syscall(service_time=0.001)
            ),
            AmpomMigration(),
        )
        assert result.budget.syscall > 0.0
        obs.tracer.verify_budget(result.budget)

    def test_random_access_covered(self):
        result, obs = _traced_run(
            UniformRandomWorkload(mib(2), n_references=2048), AmpomMigration()
        )
        obs.tracer.verify_budget(result.budget)

    def test_lossy_run_covered(self):
        config = figures.scaled_config(1 / 16, seed=7).with_(
            faults=FaultSpec(loss_rate=0.05, duplicate_rate=0.02)
        )
        result, obs = _traced_run(
            SequentialWorkload(mib(2), sweeps=2), AmpomMigration(), config=config
        )
        assert result.counters.retransmits > 0
        obs.tracer.verify_budget(result.budget)

    def test_memory_pressure_run_covered(self):
        result, obs = _traced_run(
            SequentialWorkload(mib(2), sweeps=2),
            AmpomMigration(),
            capacity_pages=256,
        )
        assert result.counters.pages_evicted > 0
        obs.tracer.verify_budget(result.budget)

    def test_wall_identity_equals_span_sums(self):
        """freeze + run_time == sum of all bucketed span durations."""
        result, obs = _traced_run(SequentialWorkload(mib(2), sweeps=2), AmpomMigration())
        total = sum(obs.tracer.bucket_sums().values())
        assert total == pytest.approx(result.freeze_time + result.run_time, rel=1e-9)


class TestUnattributedTimeFails:
    def test_missing_span_is_detected(self):
        """A budget charge without its twin span must fail verification."""
        result, obs = _traced_run(SequentialWorkload(mib(1)), AmpomMigration())
        tampered = TimeBudget(**result.budget.as_dict())
        tampered.stall += 1e-9  # one unattributed nanosecond
        with pytest.raises(SimulationError, match="unattributed"):
            obs.tracer.verify_budget(tampered)


class TestTracedRunsAreIdentical:
    def test_traced_equals_untraced(self):
        untraced = _untraced_run(SequentialWorkload(mib(2), sweeps=2), AmpomMigration())
        traced, _ = _traced_run(SequentialWorkload(mib(2), sweeps=2), AmpomMigration())
        assert traced.budget.as_dict() == untraced.budget.as_dict()
        assert traced.run_time == untraced.run_time
        assert traced.counters.as_dict() == untraced.counters.as_dict()

    def test_traced_equals_untraced_under_faults(self):
        config = figures.scaled_config(1 / 16, seed=3).with_(
            faults=FaultSpec(loss_rate=0.05, delay_rate=0.1, delay_s=0.005)
        )
        untraced = _untraced_run(
            SequentialWorkload(mib(2), sweeps=2), AmpomMigration(), config=config
        )
        traced, _ = _traced_run(
            SequentialWorkload(mib(2), sweeps=2), AmpomMigration(), config=config
        )
        assert traced.budget.as_dict() == untraced.budget.as_dict()
        assert traced.counters.as_dict() == untraced.counters.as_dict()


class TestTraceStructure:
    def test_fault_spans_nest_and_close(self):
        result, obs = _traced_run(SequentialWorkload(mib(2)), AmpomMigration())
        tr = obs.tracer
        assert tr.open_spans == 0
        faults = tr.spans_named("fault")
        assert len(faults) == result.counters.total_faults
        assert all(s.track == MIGRANT_TRACK and s.depth == 0 for s in faults)
        # Stall spans recorded inside a fault sit at depth 1.
        stalls = tr.spans_named("stall")
        assert stalls and all(s.depth == 1 for s in stalls)

    def test_each_migrant_records_on_its_own_track(self):
        """Several migrants each get a ``dest/<name>`` track, so a fault's
        end closes its own migrant's fault: no fault or compute span nests
        in another migrant's fault, and each track holds exactly its
        migrant's faults."""
        spec = build_preset("contention", seed=0)
        obs = Observability.enabled()
        results = ScenarioRuntime(spec, obs=obs).execute()
        tr = obs.tracer
        assert tr.open_spans == 0
        faults = tr.spans_named("fault")
        per_track = Counter(s.track for s in faults)
        assert per_track == {
            f"dest/{m.name}": r.counters.total_faults
            for m, r in zip(spec.migrants, results)
        }
        computes = tr.spans_named("compute")
        assert computes and all(s.depth == 0 for s in faults + computes)
        assert MIGRANT_TRACK not in tr.tracks()

    def test_each_migrant_deputy_records_on_its_own_track(self):
        """Several migrants' home deputies each record on ``home/<name>``:
        every serve span sits on its own migrant's track, and so does each
        deputy's queue-depth series."""
        spec = build_preset("contention", seed=0)
        obs = Observability.enabled()
        results = ScenarioRuntime(spec, obs=obs).execute()
        tr = obs.tracer
        per_track = Counter(s.track for s in tr.spans_named("serve"))
        assert per_track == {
            f"home/{m.name}": r.counters.demand_requests + r.counters.prefetch_requests
            for m, r in zip(spec.migrants, results)
        }
        assert {c.track for c in tr.counters} == set(per_track)
        assert DEPUTY_TRACK not in tr.tracks()
        assert all(_overlaps(spans) == 0 for spans in _deputy_spans(tr).values())

    def test_home_and_transit_deputies_never_share_a_track(self):
        """On a lone three-hop run the home deputy keeps ``home/deputy``
        and the n1 transit deputy records on ``n1/transit``: a request split
        between them by page owner is served concurrently, but no track
        holds two overlapping spans."""
        obs = Observability.enabled()
        spec = build_preset("three-hop", "AMPoM", scale=1 / 16, seed=0)
        ScenarioRuntime(spec, obs=obs).execute()
        spans = _deputy_spans(obs.tracer)
        assert set(spans) == {DEPUTY_TRACK, "n1/transit"}
        assert {track: _overlaps(s) for track, s in spans.items()} == {
            DEPUTY_TRACK: 0,
            "n1/transit": 0,
        }

    def test_deputy_serves_traced(self):
        result, obs = _traced_run(SequentialWorkload(mib(2)), AmpomMigration())
        serves = obs.tracer.spans_named("serve")
        assert serves
        assert all(s.track == DEPUTY_TRACK for s in serves)
        requests = result.counters.demand_requests + result.counters.prefetch_requests
        assert len(serves) == requests

    def test_wire_spans_both_directions(self):
        _, obs = _traced_run(SequentialWorkload(mib(2)), AmpomMigration())
        tracks = obs.tracer.tracks()
        assert "wire/home->dest" in tracks
        assert "wire/dest->home" in tracks

    def test_request_instants_match_counters(self):
        result, obs = _traced_run(SequentialWorkload(mib(2)), AmpomMigration())
        demands = [i for i in obs.tracer.instants if i.name == "demand_request"]
        assert len(demands) == result.counters.demand_requests

    def test_metrics_histograms_populated(self):
        result, obs = _traced_run(SequentialWorkload(mib(2)), AmpomMigration())
        hist = obs.metrics.histograms
        assert hist["stall_s"].count == (
            result.counters.major_faults + result.counters.inflight_waits
        )
        assert hist["zone_size_pages"].count == result.counters.total_faults
        assert hist["locality_score"].count == result.counters.total_faults
        counters = obs.metrics.counter_values
        assert counters["pages_prefetched"] == float(result.counters.pages_prefetched)
        assert counters["wasted_pages"] == float(result.wasted_pages)
