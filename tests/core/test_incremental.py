"""IncrementalWindow ≡ the naive window + full-window analysis.

The incremental sliding-window analysis is a pure optimization: after any
sequence of records (pushes and implied evictions) every query must return
*exactly* — bit-for-bit for the float quantities — what the naive
:class:`repro.core.window.LookbackWindow` plus the full-window scans of
:mod:`repro.core.stride` / :mod:`repro.core.locality` return for the same
stream.  Hypothesis drives arbitrary streams through both and compares
after every single record, so any divergence pins the exact prefix that
caused it.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalWindow
from repro.core.locality import spatial_locality_score
from repro.core.stride import find_outstanding_streams, stride_counts
from repro.core.window import LookbackWindow
from repro.errors import ConfigurationError

#: Small page universe so streams collide (strides, repeats, evictions).
records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # vpn
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),  # dt
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),  # cpu
    ),
    max_size=60,
)
lengths = st.integers(min_value=2, max_value=12)
dmaxes = st.integers(min_value=1, max_value=5)


def _drive(stream, length, dmax):
    """Feed the stream to both windows, comparing after every record."""
    inc = IncrementalWindow(length, dmax)
    naive = LookbackWindow(length)
    t = 0.0
    for vpn, dt, cpu in stream:
        t += dt
        assert inc.record(vpn, t, cpu) == naive.record(vpn, t, cpu)
        yield inc, naive


class TestWindowSurface:
    """The LookbackWindow-compatible recording surface."""

    @given(records, lengths, dmaxes)
    def test_contents_track_naive(self, stream, length, dmax):
        for inc, naive in _drive(stream, length, dmax):
            assert inc.pages == naive.pages
            assert inc.times == naive.times
            assert inc.cpus == naive.cpus
            assert len(inc) == len(naive)
            assert inc.full == naive.full
            assert inc.wraps == naive.wraps
            assert inc.last_page == naive.last_page

    @given(records, lengths, dmaxes)
    # A subnormal span, where l / span overflows: both windows saturate.
    @example(stream=[(0, 0.0, 1.0), (1, 5e-324, 1.0)], length=2, dmax=1)
    def test_derived_floats_bit_identical(self, stream, length, dmax):
        for inc, naive in _drive(stream, length, dmax):
            # Exact equality on purpose: the incremental path promises the
            # identical float operation sequence, not approximation.
            assert inc.paging_rate(0.01) == naive.paging_rate(0.01)
            assert inc.mean_cpu() == naive.mean_cpu()
            assert inc.last_cpu() == naive.last_cpu()

    def test_rejects_decreasing_times(self):
        inc = IncrementalWindow(4, 2)
        assert inc.record(1, 1.0, 0.5)
        assert inc.record(2, 2.0, 0.5)
        with pytest.raises(ConfigurationError):
            inc.record(3, 1.5, 0.5)

    def test_consecutive_repeat_not_recorded(self):
        inc = IncrementalWindow(4, 2)
        assert inc.record(7, 0.0, 1.0)
        assert not inc.record(7, 1.0, 1.0)
        assert inc.pages == (7,)


class TestAnalysisQueries:
    """The per-fault analysis vs the full-window reference scans."""

    @given(records, lengths, dmaxes)
    def test_stride_counts_match_naive(self, stream, length, dmax):
        for inc, naive in _drive(stream, length, dmax):
            assert inc.stride_counts() == stride_counts(naive.pages, dmax)

    @given(records, lengths, dmaxes)
    def test_locality_score_bit_identical(self, stream, length, dmax):
        for inc, naive in _drive(stream, length, dmax):
            assert inc.locality_score() == spatial_locality_score(
                naive.pages, dmax
            )

    @given(records, lengths, dmaxes)
    def test_outstanding_streams_match_naive(self, stream, length, dmax):
        for inc, naive in _drive(stream, length, dmax):
            assert inc.outstanding_streams() == find_outstanding_streams(
                naive.pages, dmax
            )

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=20, max_value=200),
    )
    def test_long_sequential_stream(self, start, n):
        """Many evictions on the best case for strides (pure sequential)."""
        inc = IncrementalWindow(8, 4)
        naive = LookbackWindow(8)
        for i in range(n):
            inc.record(start + i, float(i), 1.0)
            naive.record(start + i, float(i), 1.0)
        assert inc.stride_counts() == stride_counts(naive.pages, 4)
        assert inc.locality_score() == 1.0
        assert inc.outstanding_streams() == find_outstanding_streams(
            naive.pages, 4
        )

    def test_paper_example_score(self):
        """The paper's worked example {10,99,11,34,12,85} scores 0.25."""
        inc = IncrementalWindow(20, 2)
        for i, vpn in enumerate((10, 99, 11, 34, 12, 85)):
            inc.record(vpn, float(i), 1.0)
        assert inc.locality_score() == pytest.approx(3 / (6 * 2))
