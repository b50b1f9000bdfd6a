"""Unit and property tests for stride detection.

The unit tests encode the paper's own worked examples (sections 3.1, 3.2,
3.4) verbatim on :class:`IncrementalWindow`, so any divergence from the
published semantics fails here.  Laws over arbitrary page lists, which
may repeat a page consecutively as no window does, run on the oracle's
references.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracle import ref_outstanding_streams, ref_stride_counts
from repro.core.incremental import IncrementalWindow
from repro.errors import ConfigurationError

from .conftest import window_of


def counts_of(pages, dmax=4):
    return window_of(pages, dmax).stride_counts()


def streams_of(pages, dmax=4):
    return window_of(pages, dmax).outstanding_streams()


class TestStrideCounts:
    def test_paper_example_section_3_1(self):
        """{1,99,2,45,3,78,4}: three stride-2 references, stride_2 = 4."""
        counts = counts_of([1, 99, 2, 45, 3, 78, 4])
        assert counts[2] == 4
        assert counts[1] == 0

    def test_paper_example_section_3_2(self):
        """{10,99,11,34,12,85}: stride_2 = 3 (pages 10, 11, 12)."""
        counts = counts_of([10, 99, 11, 34, 12, 85])
        assert counts[2] == 3
        assert counts[1] == 0
        assert counts[3] == 0
        assert counts[4] == 0

    def test_pure_sequential_is_all_stride_1(self):
        counts = counts_of([1, 2, 3, 4, 5])
        assert counts[1] == 5
        assert counts[2] == 0  # minimum distance rule: no double counting

    def test_no_sequential_pairs(self):
        counts = counts_of([10, 20, 30])
        assert all(v == 0 for v in counts.values())

    def test_minimum_distance_selects_smallest_d(self):
        # 5 appears twice; the closer occurrence (distance 1) wins.
        counts = counts_of([5, 99, 4, 5])
        assert counts[1] == 2  # pages 4 and 5
        assert counts[2] == 0

    def test_absolute_distance_counts_descending_access(self):
        """A descending sweep {4,3,2,1} still shows spatial locality."""
        counts = counts_of([4, 3, 2, 1])
        assert counts[1] == 4

    def test_stride_beyond_dmax_ignored(self):
        counts = counts_of([1, 90, 70, 50, 2], dmax=2)
        assert all(v == 0 for v in counts.values())
        counts = counts_of([1, 90, 70, 50, 2], dmax=4)
        assert counts[4] == 2

    def test_dmax_validation(self):
        with pytest.raises(ConfigurationError):
            IncrementalWindow(4, 0)

    def test_empty_window(self):
        assert IncrementalWindow(4, 4).stride_counts() == {1: 0, 2: 0, 3: 0, 4: 0}

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=25))
    def test_counts_bounded_by_window_length(self, pages):
        counts = ref_stride_counts(pages, dmax=4)
        distinct = len(set(pages))
        for v in counts.values():
            assert 0 <= v <= distinct

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=20))
    def test_synthetic_interleaved_streams(self, d, length):
        """d interleaved sequential streams produce stride-d references."""
        base = [1000 * s for s in range(d)]
        pages = []
        for i in range(length):
            for s in range(d):
                pages.append(base[s] + i)
        counts = counts_of(pages)
        # Every page of every stream participates in a stride-d pair.
        assert counts[d] == d * length
        for other in range(1, 5):
            if other != d:
                assert counts[other] == 0

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=25))
    def test_matches_bruteforce(self, pages):
        """The oracle against a direct transcription of the definition."""
        dmax = 4
        expected: dict[int, set[int]] = {d: set() for d in range(1, dmax + 1)}
        for p, vpn in enumerate(pages):
            dists = [abs(q - p) for q, other in enumerate(pages) if other == vpn + 1]
            if not dists:
                continue
            d = min(dists)
            if 1 <= d <= dmax:
                expected[d].add(vpn)
                expected[d].add(vpn + 1)
        assert ref_stride_counts(pages, dmax) == {d: len(s) for d, s in expected.items()}


class TestOutstandingStreams:
    def test_paper_example_section_3_4(self):
        """l=10, {13,27,7,8,14,8,3,15,4,5}: pivots are 16, 5, and 6;
        the {7,8} stream is no longer outstanding."""
        pages = [13, 27, 7, 8, 14, 8, 3, 15, 4, 5]
        streams = streams_of(pages)
        pivots = {s.pivot for s in streams}
        assert pivots == {16, 5, 6}
        by_pivot = {s.pivot: s.stride for s in streams}
        assert by_pivot[16] == 3  # {14, 15}
        assert by_pivot[5] == 2  # {3, 4}
        assert by_pivot[6] == 1  # {4, 5}

    def test_old_stream_not_outstanding(self):
        # {7,8} at the start of a length-10 window: endpoint too old.
        pages = [7, 8] + [100 + i * 10 for i in range(8)]
        assert all(s.pivot != 9 for s in streams_of(pages))

    def test_sequential_stream_is_outstanding(self):
        streams = streams_of([1, 2, 3, 4])
        assert [s.pivot for s in streams] == [5]
        assert streams[0].stride == 1

    def test_duplicate_pivots_reported_once(self):
        # Two pairs ending in the same successor page.
        streams = streams_of([4, 9, 4, 9, 5])
        assert len([s for s in streams if s.pivot == 6]) == 1

    def test_backward_pairs_are_not_streams(self):
        """{5,4}: page 4's successor was referenced *before* it; no forward
        progress to extrapolate."""
        assert streams_of([5, 4]) == []

    def test_empty(self):
        assert IncrementalWindow(4, 4).outstanding_streams() == []

    def test_deterministic_order(self):
        pages = [13, 27, 7, 8, 14, 8, 3, 15, 4, 5]
        a = streams_of(pages)
        b = streams_of(pages)
        assert a == b
        assert [s.end_index for s in a] == sorted(s.end_index for s in a)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=25))
    def test_streams_satisfy_definition(self, pages):
        n = len(pages)
        for stride, end_index, pivot in ref_outstanding_streams(pages, dmax=4):
            assert 1 <= stride <= 4
            assert end_index >= n - stride
            assert pages[end_index] + 1 == pivot
            p = end_index - stride
            assert pages[p] + 1 == pages[end_index]
