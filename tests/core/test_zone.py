"""Unit and property tests for dependent-zone sizing and selection.

Eq. 3's horizon is read from the prefetcher, the zone size from
``clamp_zone_size`` on eq. 3's product, and the section-3.4 selection
from ``select_from_streams`` and ``readahead_fallback`` on the streams of
an :class:`IncrementalWindow` — the calls the prefetcher makes.  Laws over
arbitrary page lists run on the oracle's selection.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracle import ref_select_dependent_pages
from repro.config import AMPoMConfig, HardwareSpec
from repro.core.incremental import IncrementalWindow
from repro.core.policy import LinkConditions
from repro.core.prefetcher import AMPoMPrefetcher
from repro.core.zone import clamp_zone_size, readahead_fallback, select_from_streams
from repro.mem.residency import ResidencyTracker

from .conftest import window_of


def zone_size(score, rate, horizon, cpu_ratio=1.0, max_pages=256, min_pages=0):
    """Eq. 3's ``N = (c'/c) * S * r * t``, clamped as the prefetcher does."""
    return clamp_zone_size(cpu_ratio * score * rate * horizon, min_pages, max_pages)


def streams_of(pages):
    return window_of(pages, dmax=4).outstanding_streams()


class TestHorizon:
    def test_formula(self):
        """t = 2*t0 + td + 1/r (eq. 3 / figure 3)."""
        hardware = HardwareSpec()
        pf = AMPoMPrefetcher(AMPoMConfig(), hardware, address_limit=1000)
        # td = one page at this bandwidth = 0.0005 s.
        cond = LinkConditions(rtt_s=0.004, available_bw_bps=hardware.page_size / 0.0005)
        res = ResidencyTracker(remote_pages=range(1000), mapped_pages=())
        # Two faults 2 ms apart: r = 2 / 0.002, so 1/r = 0.001 s.
        for now, vpn in ((0.0, 10), (0.002, 11)):
            pf.on_fault(vpn, now=now, cpu_share=1.0, residency=res, conditions=cond)
        assert pf.last_trace.horizon == pytest.approx(0.0055)


class TestZoneSize:
    def test_formula(self):
        # N = (c'/c) * S * r * t
        assert zone_size(0.5, 1000.0, 0.02, cpu_ratio=1.0) == 10

    def test_cpu_ratio_scales(self):
        assert zone_size(0.5, 1000.0, 0.02, cpu_ratio=2.0) == 20

    def test_clamped_to_max(self):
        assert zone_size(1.0, 1e6, 1.0, max_pages=256) == 256

    def test_floor_applies_when_pattern_unclear(self):
        assert zone_size(0.0, 1000.0, 0.02, min_pages=8) == 8

    def test_no_floor_by_default(self):
        assert zone_size(0.0, 1000.0, 0.02) == 0

    @pytest.mark.parametrize(
        "rate, horizon, expected",
        [(float("inf"), 1.0, 256), (1e305, 1e5, 256), (float("inf"), 0.0, 8)],
        ids=("inf-rate", "overflowing-product", "nan-product"),
    )
    def test_non_finite_product_clamps(self, rate, horizon, expected):
        # +inf clamps to max_pages; NaN (inf * 0) falls back to min_pages.
        assert zone_size(1.0, rate, horizon, max_pages=256, min_pages=8) == expected

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1e5),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0.1, max_value=10),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=64, max_value=512),
    )
    def test_always_in_bounds(self, s, r, t, c, lo, hi):
        n = zone_size(s, r, t, cpu_ratio=c, max_pages=hi, min_pages=lo)
        assert lo <= n <= hi


class TestSelection:
    def test_paper_pivots_receive_quota(self):
        """Pivots 16, 5, 6 from the section-3.4 example split N = 6 evenly."""
        pages = [13, 27, 7, 8, 14, 8, 3, 15, 4, 5]
        selected = select_from_streams(streams_of(pages), 6, address_limit=1000)
        assert len(selected) == 6
        # Each pivot contributes its quota of 2 consecutive pages.
        assert {16, 17, 5, 7, 6, 8} >= set(selected)
        assert {16, 5, 6} <= set(selected)

    def test_saved_quota_extends_walk(self):
        """A page claimed by an earlier stream costs no quota (section 3.4)."""
        pages = [10, 20, 11, 21, 12, 22]  # pivots 13 (stride 2) and 23 (stride 2)
        selected = select_from_streams(streams_of(pages), 4, address_limit=1000)
        assert set(selected) == {13, 14, 23, 24}

    def test_overlapping_pivot_regions_use_saved_quota(self):
        # Pivot A = 13 ({11, 12}), pivot B = 14 ({12, 13}): B's walk skips
        # 14 once A claimed it and still collects its two pages.
        streams = streams_of([11, 90, 12, 13])
        assert [s.pivot for s in streams] == [13, 14]
        selected = select_from_streams(streams, 4, address_limit=1000)
        assert selected == [13, 14, 15, 16]

    def test_fallback_read_ahead_after_last_reference(self):
        """No outstanding stream: the N pages after r_l are dependent."""
        window = window_of([50, 10, 90, 30])
        assert window.outstanding_streams() == []
        assert readahead_fallback(window.last_page, 3, address_limit=1000) == [31, 32, 33]

    def test_fallback_respects_address_limit(self):
        assert readahead_fallback(30, 5, address_limit=32) == [31]

    def test_stream_walk_respects_address_limit(self):
        selected = select_from_streams(streams_of([1, 2, 3]), 10, address_limit=6)
        assert selected == [4, 5]

    def test_zero_n_selects_nothing(self):
        assert select_from_streams(streams_of([1, 2, 3]), 0, address_limit=100) == []
        assert readahead_fallback(3, 0, address_limit=100) == []

    def test_empty_window_selects_nothing(self):
        # No stream to split a quota over and no last page to read ahead of.
        window = IncrementalWindow(4, 4)
        assert window.outstanding_streams() == []
        assert window.last_page is None

    def test_remainder_distributed_to_first_streams(self):
        pages = [10, 20, 11, 21, 12, 22]  # two pivots: 13, 23
        selected = select_from_streams(streams_of(pages), 5, address_limit=1000)
        assert selected == [13, 14, 15, 23, 24]

    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=64),
    )
    def test_selection_invariants(self, pages, n):
        limit = 1000
        selected = ref_select_dependent_pages(pages, n, dmax=4, address_limit=limit)
        assert len(selected) <= n
        assert len(set(selected)) == len(selected)  # no duplicates
        assert all(0 <= p < limit for p in selected)

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=20))
    def test_selection_deterministic(self, pages):
        a, b = streams_of(pages), streams_of(pages)
        assert a == b
        if a:
            assert select_from_streams(a, 16, 1000) == select_from_streams(b, 16, 1000)
