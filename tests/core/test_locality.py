"""Unit and property tests for the spatial locality score (eq. 1)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracle import ref_spatial_locality_score
from repro.core.incremental import IncrementalWindow

from .conftest import window_of


def score(pages):
    return window_of(pages, dmax=4).locality_score()


def test_pure_sequential_scores_one():
    """Paper section 3.2: sequential access {1,2,3,4,...} has S = 1."""
    assert score([1, 2, 3, 4, 5, 6]) == pytest.approx(1.0)


def test_paper_example_quarter():
    """{10,99,11,34,12,85}: S = 3 / (6 * 2) = 0.25."""
    assert score([10, 99, 11, 34, 12, 85]) == pytest.approx(0.25)


def test_no_locality_scores_zero():
    assert score([10, 20, 30, 40]) == 0.0


def test_empty_window_scores_zero():
    assert IncrementalWindow(20, 4).locality_score() == 0.0


def test_single_reference_scores_zero():
    assert score([42]) == 0.0


def test_interleaved_streams_score():
    # Two interleaved streams: every page is a stride-2 participant.
    pages = [10, 50, 11, 51, 12, 52]
    # stride_2 = 6 -> S = 6 / (6 * 2) = 0.5
    assert score(pages) == pytest.approx(0.5)


def test_larger_stride_weighs_less():
    s2 = score([10, 90, 11, 91, 12])
    s1 = score([10, 11, 12, 13, 14])
    assert s1 > s2


@given(st.lists(st.integers(min_value=0, max_value=100), max_size=30))
def test_score_normalized(pages):
    s = ref_spatial_locality_score(pages, dmax=4)
    assert 0.0 <= s <= 1.0


@given(st.integers(min_value=2, max_value=25))
def test_sequential_always_one(length):
    assert score(list(range(length))) == pytest.approx(1.0)
