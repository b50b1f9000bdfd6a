"""Unit tests for the span tracer (repro.obs.spans)."""

from __future__ import annotations

import sys
from array import array

import pytest

from repro.errors import SimulationError
from repro.metrics.timeline import TimeBudget
from repro.obs.spans import DEPUTY_TRACK, MIGRANT_TRACK, SpanTracer, wire_track


class TestComplete:
    def test_records_exact_duration(self):
        tr = SpanTracer()
        tr.complete(MIGRANT_TRACK, "compute", 1.0, 0.25, "compute")
        (span,) = tr.spans
        assert span.dur == 0.25
        assert span.end == 1.25
        assert span.bucket == "compute"
        assert len(tr) == 1

    def test_negative_duration_rejected(self):
        tr = SpanTracer()
        with pytest.raises(SimulationError):
            tr.complete(MIGRANT_TRACK, "compute", 1.0, -1e-9)

    def test_args_stored(self):
        tr = SpanTracer()
        tr.complete(DEPUTY_TRACK, "serve", 0.0, 0.1, pages=4)
        assert tr.spans[-1].args == {"pages": 4}

    def test_no_args_stays_none(self):
        tr = SpanTracer()
        tr.complete(DEPUTY_TRACK, "serve", 0.0, 0.1)
        assert tr.spans[-1].args is None


def _fault_site(tr, track=MIGRANT_TRACK, name="fault"):
    """The executor's per-fault wrapper: an open-span site opened with a
    ``vpn`` and closed with ``kind``/``prefetch``/``stall`` values."""
    return tr.open_span_site(track, name, "vpn", ("kind", "prefetch", "stall"))


class TestBeginEnd:
    """Enclosing spans opened and closed through an open-span site."""

    def test_nesting_depth_per_track(self):
        tr = SpanTracer()
        begin, end = _fault_site(tr)
        begin(0.0, 7)
        tr.complete(MIGRANT_TRACK, "stall", 0.1, 0.2, "stall")
        inner = tr.spans[-1]
        assert inner.depth == 1
        end(0.5, "MAJOR", 0, 0.2)
        outer = tr.spans[-1]
        assert outer.depth == 0
        assert outer.name == "fault"
        assert outer.dur == pytest.approx(0.5)
        assert tr.open_spans == 0

    def test_end_merges_args(self):
        tr = SpanTracer()
        begin, end = _fault_site(tr)
        begin(0.0, 7)
        end(1.0, "MAJOR", 4, 0.25)
        assert tr.spans[-1].args == {
            "vpn": 7, "kind": "MAJOR", "prefetch": 4, "stall": 0.25,
        }

    def test_end_without_begin_raises(self):
        tr = SpanTracer()
        _, end = _fault_site(tr)
        with pytest.raises(SimulationError):
            end(1.0, "MAJOR", 0, 0.0)

    def test_end_before_start_raises(self):
        tr = SpanTracer()
        begin, end = _fault_site(tr)
        begin(2.0, 1)
        with pytest.raises(SimulationError):
            end(1.0, "MAJOR", 0, 0.0)

    def test_tracks_nest_independently(self):
        tr = SpanTracer()
        fault_begin, fault_end = _fault_site(tr)
        serve_begin, serve_end = _fault_site(tr, DEPUTY_TRACK, "serve")
        fault_begin(0.0, 1)
        serve_begin(0.0, 1)
        assert tr.open_spans == 2
        serve_end(0.1, "MAJOR", 0, 0.0)
        fault_end(0.2, "MAJOR", 0, 0.0)
        assert tr.open_spans == 0
        assert [s.depth for s in tr.spans] == [0, 0]


class TestBucketSums:
    def test_sequential_accumulation_matches_budget(self):
        """Same floats added in the same order => exact equality."""
        durations = [0.1, 0.07, 1e-9, 0.3333333333333333, 0.2]
        tr = SpanTracer()
        budget = TimeBudget()
        for d in durations:
            tr.complete(MIGRANT_TRACK, "stall", 0.0, d, "stall")
            budget.stall += d
        assert tr.bucket_sums()["stall"] == budget.stall
        tr.verify_budget(budget)

    def test_verify_budget_catches_unattributed_time(self):
        tr = SpanTracer()
        budget = TimeBudget()
        budget.compute = 0.5
        tr.complete(MIGRANT_TRACK, "compute", 0.0, 0.25, "compute")
        with pytest.raises(SimulationError, match="unattributed"):
            tr.verify_budget(budget)

    def test_verify_budget_catches_unknown_bucket(self):
        tr = SpanTracer()
        tr.complete(MIGRANT_TRACK, "x", 0.0, 0.1, "not_a_bucket")
        with pytest.raises(SimulationError, match="unknown buckets"):
            tr.verify_budget(TimeBudget())

    def test_unbucketed_spans_ignored(self):
        tr = SpanTracer()
        tr.complete(DEPUTY_TRACK, "serve", 0.0, 123.0)
        assert tr.bucket_sums() == {}
        tr.verify_budget(TimeBudget())


class TestQueries:
    def test_tracks_first_appearance_order(self):
        tr = SpanTracer()
        tr.complete("b/x", "s", 0.0, 0.1)
        tr.instant("a/y", "i", 0.0)
        tr.counter("c/z", "g", 0.0, 1.0)
        assert tr.tracks() == ["b/x", "a/y", "c/z"]

    def test_spans_named(self):
        tr = SpanTracer()
        tr.complete(MIGRANT_TRACK, "stall", 0.0, 0.1)
        tr.complete(MIGRANT_TRACK, "compute", 0.1, 0.2)
        tr.complete(MIGRANT_TRACK, "stall", 0.3, 0.1)
        assert len(tr.spans_named("stall")) == 2


class TestRecordingSites:
    """The pre-interned per-site recorders used by the hot paths must be
    indistinguishable from the generic API in everything they store."""

    def test_span_site_matches_complete(self):
        fast, slow = SpanTracer(), SpanTracer()
        rec = fast.span_site(MIGRANT_TRACK, "stall", "stall", arg="vpn")
        rec(1.0, 0.25, 7)
        slow.complete(MIGRANT_TRACK, "stall", 1.0, 0.25, "stall", vpn=7)
        assert fast.spans == slow.spans

    def test_span_site_argless(self):
        tr = SpanTracer()
        tr.span_site(MIGRANT_TRACK, "compute", "compute")(0.5, 0.1)
        (span,) = tr.spans
        assert span.bucket == "compute"
        assert span.args is None

    def test_span_site_negative_duration_rejected(self):
        tr = SpanTracer()
        rec = tr.span_site(MIGRANT_TRACK, "compute", "compute")
        with pytest.raises(SimulationError):
            rec(1.0, -1e-9)

    def test_span_site_depth_tracks_open_stack(self):
        tr = SpanTracer()
        rec = tr.span_site(MIGRANT_TRACK, "stall", "stall", arg="vpn")
        begin, end = _fault_site(tr)
        begin(0.0, 9)
        rec(0.1, 0.2, 9)
        assert tr.spans[-1].depth == 1
        end(0.5, "MAJOR", 0, 0.2)
        rec(0.6, 0.1, 9)
        assert tr.spans[-1].depth == 0

    def test_open_span_site_merges_end_keys(self):
        tr = SpanTracer()
        begin, end = tr.open_span_site(
            MIGRANT_TRACK, "fault", "vpn", ("kind", "prefetch", "stall")
        )
        begin(0.0, 7)
        end(1.0, "MAJOR", 4, 0.25)
        (span,) = tr.spans
        assert span.args == {
            "vpn": 7, "kind": "MAJOR", "prefetch": 4, "stall": 0.25,
        }
        assert span.dur == 1.0

    def test_open_span_site_end_before_start_raises(self):
        tr = SpanTracer()
        begin, end = tr.open_span_site(
            MIGRANT_TRACK, "fault", "vpn", ("kind", "prefetch", "stall")
        )
        begin(2.0, 1)
        with pytest.raises(SimulationError):
            end(1.0, "MAJOR", 0, 0.0)

    def test_instant_site_single_and_double_key(self):
        fast, slow = SpanTracer(), SpanTracer()
        one = fast.instant_site(MIGRANT_TRACK, "prefetch_request", "pages")
        two = fast.instant_site(MIGRANT_TRACK, "demand_request", "vpn", "prefetch")
        one(1.0, 4)
        two(2.0, 9, 3)
        slow.instant(MIGRANT_TRACK, "prefetch_request", 1.0, pages=4)
        slow.instant(MIGRANT_TRACK, "demand_request", 2.0, vpn=9, prefetch=3)
        assert fast.instants == slow.instants

    def test_column_growth_preserves_site_recorders(self):
        """Recorders capture the columns' ``append`` at creation; growth
        reallocates inside the same array objects, so early recorders
        must stay valid."""
        tr = SpanTracer()
        rec = tr.span_site(MIGRANT_TRACK, "stall", "stall", arg="vpn")
        for i in range(5000):  # many reallocations of every column
            rec(float(i), 0.5, i)
        assert len(tr) == 5000
        assert tr.spans[4999].args == {"vpn": 4999}
        assert tr.bucket_sums()["stall"] == sum([0.5] * 5000)


class TestStorage:
    """Rows append to typed columns and name their args through their
    recording site's meta."""

    def test_columns_hold_only_append_slack(self):
        """One row past a power of two: a doubling store would hold 2048
        rows here, an appended ``array`` about 1/16 more than it uses."""
        tr = SpanTracer()
        rec = tr.span_site(MIGRANT_TRACK, "stall", "stall", arg="vpn")
        mark = tr.instant_site(MIGRANT_TRACK, "prefetch_request", "pages")
        rows = 1025
        for i in range(rows):
            rec(float(i), 0.5, i)
            mark(float(i), i)
        columns = [
            getattr(tr, slot)
            for slot in SpanTracer.__slots__
            if isinstance(getattr(tr, slot, None), array)
        ]
        assert len(columns) == 5  # span meta/start/dur, instant meta/time
        empty = sys.getsizeof(array("d"))
        for column in columns:
            assert sys.getsizeof(column) - empty <= column.itemsize * (rows + rows // 16 + 8)

    def test_sites_sharing_a_triple_keep_their_own_arg_names(self):
        tr = SpanTracer()
        serve = tr.span_site(DEPUTY_TRACK, "serve", arg="pages")
        tr.complete(DEPUTY_TRACK, "serve", 0.0, 0.1, seq=9, pages=4)
        serve(0.1, 0.2, 3)
        tr.complete(DEPUTY_TRACK, "serve", 0.3, 0.1)
        copy_pages = tr.span_site(MIGRANT_TRACK, "copy", "copy", arg="pages")
        copy_vpn = tr.span_site(MIGRANT_TRACK, "copy", "copy", arg="vpn")
        copy_pages(0.0, 0.1, 4)
        copy_vpn(0.1, 0.1, 7)
        args = [s.args for s in tr.spans]
        assert args == [{"seq": 9, "pages": 4}, {"pages": 3}, None, {"pages": 4}, {"vpn": 7}]
        assert list(args[0]) == ["seq", "pages"]

    def test_single_arg_values_are_stored_as_given(self):
        tr = SpanTracer()
        tr.span_site(MIGRANT_TRACK, "copy", "copy", arg="range")(0.0, 0.1, (3, 4))
        tr.instant_site(MIGRANT_TRACK, "prefetch_request", "pages")(0.0, None)
        assert tr.spans[0].args == {"range": (3, 4)}
        assert tr.instants[0].args == {"pages": None}


class TestWireHook:
    def test_hook_records_submission_to_arrival(self):
        tr = SpanTracer()
        hook = tr.wire_hook()
        hook("home->dest", 1.0, 1.5, 4096, 1.6)
        (span,) = tr.spans
        assert span.track == wire_track("home->dest")
        assert span.name == "msg"
        assert span.start == 1.0
        assert span.dur == pytest.approx(0.6)
        assert span.args == {"bytes": 4096}
