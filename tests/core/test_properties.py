"""Cross-cutting algebraic properties of the AMPoM equations.

The per-module suites (test_locality/test_stride/test_zone) pin worked
examples and local behavior; this suite states laws that tie the pieces
together — invariances of the stride analysis, normalization of ``S``,
and conservation of the quota split — the properties the invariant
checker of :mod:`repro.check` relies on.  A law over arbitrary page lists,
which may repeat a page consecutively as no window does, runs on the
oracle's references (tests/core/test_incremental.py pins the window
engine to them); the rest run on :class:`IncrementalWindow` and the zone
helpers.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracle import (
    ref_outstanding_streams,
    ref_select_dependent_pages,
    ref_spatial_locality_score,
    ref_stride_counts,
)
from repro.core.zone import clamp_zone_size

from .conftest import window_of

windows = st.lists(st.integers(min_value=0, max_value=80), max_size=25)
dmaxes = st.integers(min_value=1, max_value=6)


# ----------------------------------------------------------------------
# eq. 1 — spatial locality score
# ----------------------------------------------------------------------
class TestScoreLaws:
    @given(windows, dmaxes)
    def test_score_in_unit_interval(self, pages, dmax):
        assert 0.0 <= ref_spatial_locality_score(pages, dmax) <= 1.0

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=2, max_value=25))
    def test_pure_sequential_scores_exactly_one(self, start, length):
        pages = list(range(start, start + length))
        assert window_of(pages, dmax=4).locality_score() == 1.0

    @given(windows, st.integers(min_value=1, max_value=5))
    def test_score_monotone_in_dmax(self, pages, dmax):
        """Raising dmax only admits more strides; S never decreases."""
        assert ref_spatial_locality_score(pages, dmax + 1) >= ref_spatial_locality_score(
            pages, dmax
        ) - 1e-12

    def test_paper_worked_example_pinned(self):
        """Section 3.2: {10,99,11,34,12,85} has stride_2 = 3 and S = 0.25."""
        window = window_of([10, 99, 11, 34, 12, 85], dmax=4)
        assert window.stride_counts() == {1: 0, 2: 3, 3: 0, 4: 0}
        assert window.locality_score() == pytest.approx(3 / (6 * 2))


# ----------------------------------------------------------------------
# section 3.1 — stride counting invariances
# ----------------------------------------------------------------------
class TestStrideInvariances:
    @given(windows, dmaxes, st.integers(min_value=-1000, max_value=1000))
    def test_translation_invariance(self, pages, dmax, shift):
        """Strides depend on page *differences*; shifting the whole
        window leaves every count unchanged."""
        shifted = [vpn + shift for vpn in pages]
        assert ref_stride_counts(shifted, dmax) == ref_stride_counts(pages, dmax)

    @given(windows, dmaxes)
    def test_reversal_invariance(self, pages, dmax):
        """Minimum *absolute* window distance is symmetric under
        reversing the reference order (eq. 1 counts descending sweeps)."""
        assert ref_stride_counts(list(reversed(pages)), dmax) == ref_stride_counts(
            pages, dmax
        )

    @given(windows, dmaxes)
    def test_counts_are_distinct_pages(self, pages, dmax):
        distinct = len(set(pages) | {vpn + 1 for vpn in pages})
        for count in ref_stride_counts(pages, dmax).values():
            assert 0 <= count <= distinct

    @given(windows, dmaxes)
    def test_outstanding_streams_use_window_strides(self, pages, dmax):
        """Every outstanding stream is a forward pair within dmax whose
        endpoint is near the window end, and pivots are unique."""
        streams = ref_outstanding_streams(pages, dmax)
        pivots = [pivot for _, _, pivot in streams]
        assert len(pivots) == len(set(pivots))
        n = len(pages)
        for stride, end_index, pivot in streams:
            assert 1 <= stride <= dmax
            assert end_index >= n - stride
            assert pages[end_index] + 1 == pivot


# ----------------------------------------------------------------------
# eq. 2/3 + section 3.4 — quota split conservation
# ----------------------------------------------------------------------
class TestQuotaSplit:
    @given(windows, st.integers(min_value=0, max_value=64), dmaxes)
    def test_selection_bounded_by_n(self, pages, n, dmax):
        """The m per-stream shares sum to N, so at most N pages are
        selected (address-limit truncation can only shrink it)."""
        selected = ref_select_dependent_pages(pages, n, dmax, address_limit=10_000)
        assert len(selected) <= n

    @given(windows, st.integers(min_value=0, max_value=64), dmaxes)
    def test_saved_quota_never_double_prefetches(self, pages, n, dmax):
        selected = ref_select_dependent_pages(pages, n, dmax, address_limit=10_000)
        assert len(selected) == len(set(selected))

    @given(windows, st.integers(min_value=1, max_value=64), dmaxes)
    def test_full_quota_spent_when_space_allows(self, pages, n, dmax):
        """Far from the address limit, saved quota guarantees exactly N
        distinct pages come back (each stream walks until its share is
        spent)."""
        if not pages:
            return
        selected = ref_select_dependent_pages(pages, n, dmax, address_limit=1_000_000)
        if ref_outstanding_streams(pages, dmax):
            assert len(selected) == n

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=25),
        st.integers(min_value=1, max_value=64),
    )
    def test_empty_stream_set_falls_back_to_read_ahead(self, pages, n):
        """With no outstanding stream the selection imitates Linux
        read-ahead: the N pages after the last reference, in order."""
        shuffled = [vpn * 3 for vpn in pages]  # stride 3 > dmax: no streams
        selected = ref_select_dependent_pages(shuffled, n, dmax=2, address_limit=10_000)
        if ref_outstanding_streams(shuffled, 2):
            return
        last = shuffled[-1]
        assert selected == list(range(last + 1, last + 1 + n))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.001, max_value=1e5),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_zone_size_monotone_in_score(self, s, r, t):
        """More locality never shrinks the dependent zone."""
        lo = clamp_zone_size((s / 2) * r * t, 0, 4096)
        hi = clamp_zone_size(s * r * t, 0, 4096)
        assert hi >= lo
