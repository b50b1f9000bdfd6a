"""IncrementalWindow ≡ a replay of the recording rule + the oracle.

After any sequence of records (pushes and implied evictions) the window
must hold exactly what a few-line replay of section 3.1's recording rule
holds, and every analysis query must return *exactly* — bit-for-bit for
the float quantities — what the brute-force references of
:mod:`repro.check.oracle` compute from those contents.  Hypothesis drives
arbitrary streams through both and compares after every single record,
so any divergence pins the exact prefix that caused it.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.oracle import (
    ref_cpu_ratio,
    ref_outstanding_streams,
    ref_paging_rate,
    ref_spatial_locality_score,
    ref_stride_counts,
)
from repro.core.incremental import IncrementalWindow
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
    """Feed the stream to the window and to a list replay of the recording
    rule; yields the window and the replayed ``(pages, times, cpus, wraps)``
    after every record."""
    inc = IncrementalWindow(length, dmax)
    pages, times, cpus, wraps = [], [], [], 0
    t = 0.0
    for vpn, dt, cpu in stream:
        t += dt
        # A consecutive repeat of the newest page is one reference.
        recorded = not pages or pages[-1] != vpn
        assert inc.record(vpn, t, cpu) == recorded
        if recorded:
            pages.append(vpn)
            times.append(t)
            cpus.append(min(max(cpu, 0.0), 1.0))  # CPU shares clamp to [0, 1]
            if len(pages) > length:  # the last l entries stay; one wrap each
                del pages[0], times[0], cpus[0]
                wraps += 1
        yield inc, (pages, times, cpus, wraps)


class TestWindowSurface:
    """The recording surface against the replay."""

    @given(records, lengths, dmaxes)
    def test_contents_track_naive(self, stream, length, dmax):
        for inc, (pages, times, cpus, wraps) in _drive(stream, length, dmax):
            assert inc.pages == tuple(pages)
            assert inc.times == tuple(times)
            assert inc.cpus == tuple(cpus)
            assert len(inc) == len(pages)
            assert inc.full == (len(pages) == length)
            assert inc.wraps == wraps
            assert inc.last_page == (pages[-1] if pages else None)

    @given(records, lengths, dmaxes)
    # A subnormal span, where l / span overflows: both sides saturate.
    @example(stream=[(0, 0.0, 1.0), (1, 5e-324, 1.0)], length=2, dmax=1)
    def test_derived_floats_bit_identical(self, stream, length, dmax):
        for inc, (_, times, cpus, _) in _drive(stream, length, dmax):
            # Exact equality on purpose: the window promises the identical
            # float operation sequence, not an approximation.
            assert inc.paging_rate(0.01) == ref_paging_rate(times, 0.01)
            # c'/c as the prefetcher derives it from the window.
            c = inc.mean_cpu()
            assert ((inc.last_cpu() / c) if c > 1e-9 else 1.0) == ref_cpu_ratio(cpus)

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
    """The per-fault analysis vs the oracle's brute-force scans."""

    @given(records, lengths, dmaxes)
    def test_stride_counts_match_naive(self, stream, length, dmax):
        for inc, (pages, *_) in _drive(stream, length, dmax):
            assert inc.stride_counts() == ref_stride_counts(pages, dmax)

    @given(records, lengths, dmaxes)
    def test_locality_score_bit_identical(self, stream, length, dmax):
        for inc, (pages, *_) in _drive(stream, length, dmax):
            assert inc.locality_score() == ref_spatial_locality_score(pages, dmax)

    @given(records, lengths, dmaxes)
    def test_outstanding_streams_match_naive(self, stream, length, dmax):
        for inc, (pages, *_) in _drive(stream, length, dmax):
            got = [(s.stride, s.end_index, s.pivot) for s in inc.outstanding_streams()]
            assert got == ref_outstanding_streams(pages, dmax)

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=20, max_value=200),
    )
    def test_long_sequential_stream(self, start, n):
        """Many evictions on the best case for strides (pure sequential)."""
        inc = IncrementalWindow(8, 4)
        for i in range(n):
            inc.record(start + i, float(i), 1.0)
        pages = list(range(start + n - 8, start + n))
        assert inc.pages == tuple(pages)
        assert inc.stride_counts() == ref_stride_counts(pages, 4)
        assert inc.locality_score() == 1.0
        assert [
            (s.stride, s.end_index, s.pivot) for s in inc.outstanding_streams()
        ] == ref_outstanding_streams(pages, 4)

    def test_paper_example_score(self):
        """The paper's worked example {10,99,11,34,12,85} scores 0.25."""
        inc = IncrementalWindow(20, 2)
        for i, vpn in enumerate((10, 99, 11, 34, 12, 85)):
            inc.record(vpn, float(i), 1.0)
        assert inc.locality_score() == pytest.approx(3 / (6 * 2))
