"""Unit tests for the lookback window (W, T, C arrays) of IncrementalWindow."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.incremental import IncrementalWindow
from repro.errors import ConfigurationError


def test_records_in_order():
    w = IncrementalWindow(5, 4)
    for i, vpn in enumerate([10, 20, 30]):
        assert w.record(vpn, time=float(i), cpu=1.0)
    assert w.pages == (10, 20, 30)
    assert w.times == (0.0, 1.0, 2.0)


def test_window_wraps_discarding_oldest():
    w = IncrementalWindow(3, 4)
    for i in range(5):
        w.record(i, time=float(i), cpu=1.0)
    assert w.pages == (2, 3, 4)
    assert w.wraps == 2
    assert w.full


def test_consecutive_repeats_are_single_reference():
    """Paper section 3.1: r_p != r_{p+1} — temporal locality, one entry."""
    w = IncrementalWindow(5, 4)
    assert w.record(7, 0.0, 1.0)
    assert not w.record(7, 1.0, 1.0)
    assert w.record(8, 2.0, 1.0)
    assert w.record(7, 3.0, 1.0)  # non-consecutive repeat is recorded
    assert w.pages == (7, 8, 7)


def test_time_must_be_non_decreasing():
    w = IncrementalWindow(5, 4)
    w.record(1, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        w.record(2, 0.5, 1.0)


def test_length_validation():
    with pytest.raises(ConfigurationError):
        IncrementalWindow(1, 4)


def test_paging_rate():
    w = IncrementalWindow(10, 4)
    for i in range(5):
        w.record(i, time=i * 0.1, cpu=1.0)
    # r = l / (T_l - T_1) = 5 / 0.4
    assert w.paging_rate(fallback_interval=1.0) == pytest.approx(12.5)


def test_paging_rate_fallback_before_two_samples():
    w = IncrementalWindow(10, 4)
    assert w.paging_rate(fallback_interval=0.002) == pytest.approx(500.0)
    w.record(1, 5.0, 1.0)
    assert w.paging_rate(fallback_interval=0.002) == pytest.approx(500.0)


def test_paging_rate_zero_span_uses_fallback():
    w = IncrementalWindow(10, 4)
    w.record(1, 5.0, 1.0)
    w.record(2, 5.0, 1.0)
    assert w.paging_rate(fallback_interval=0.001) == pytest.approx(1000.0)


def test_paging_rate_saturates_on_subnormal_span():
    w = IncrementalWindow(10, 4)
    w.record(1, 0.0, 1.0)
    w.record(2, 5e-324, 1.0)
    # 2 / 5e-324 overflows; the rate saturates instead of becoming inf.
    assert w.paging_rate(fallback_interval=0.001) == sys.float_info.max


def test_cpu_statistics():
    w = IncrementalWindow(10, 4)
    w.record(1, 0.0, 0.2)
    w.record(2, 1.0, 0.6)
    assert w.mean_cpu() == pytest.approx(0.4)
    assert w.last_cpu() == pytest.approx(0.6)


def test_cpu_defaults_when_empty():
    w = IncrementalWindow(10, 4)
    assert w.mean_cpu() == 1.0
    assert w.last_cpu() == 1.0


def test_cpu_samples_clamped():
    w = IncrementalWindow(10, 4)
    w.record(1, 0.0, 2.5)
    w.record(2, 1.0, -1.0)
    assert w.cpus == (1.0, 0.0)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60))
def test_window_never_exceeds_capacity(pages):
    w = IncrementalWindow(7, 4)
    for i, vpn in enumerate(pages):
        w.record(vpn, time=float(i), cpu=1.0)
    assert len(w) <= 7
    # No consecutive duplicates survive.
    stored = w.pages
    assert all(stored[i] != stored[i + 1] for i in range(len(stored) - 1))
