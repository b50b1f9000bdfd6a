"""Shape tests for the figure generators at a small scale.

These run a reduced sweep (two sizes per kernel, small scale) and assert
the *structure* of each figure's data; the full paper-shape assertions
live in tests/integration/test_paper_claims.py and the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures

SMALL = 1.0 / 32.0


@pytest.fixture(scope="module")
def matrix():
    return figures.run_matrix(kernels=("STREAM", "RandomAccess"), scale=SMALL)


def test_run_one_returns_result():
    result = figures.run_one("STREAM", 115, "AMPoM", scale=SMALL)
    assert result.strategy == "AMPoM"
    assert result.workload == "STREAM"


def test_matrix_has_all_cells(matrix):
    assert len(matrix.results) == (5 + 4) * 3


def test_figure5_structure(matrix):
    f5 = figures.figure5(matrix)
    assert set(f5) == {"STREAM", "RandomAccess"}
    series = f5["STREAM"]["openMosix"]
    assert [mb for mb, _ in series] == [115, 230, 345, 460, 575]
    assert all(t > 0 for _, t in series)


def test_figure5_ordering(matrix):
    f5 = figures.figure5(matrix)
    for kernel in f5:
        for (_, om), (_, ap), (_, np_) in zip(
            f5[kernel]["openMosix"], f5[kernel]["AMPoM"], f5[kernel]["NoPrefetch"]
        ):
            assert np_ < ap < om


def test_figure6_structure(matrix):
    f6 = figures.figure6(matrix)
    for kernel, schemes in f6.items():
        for scheme, series in schemes.items():
            totals = [t for _, t in series]
            assert totals == sorted(totals) or kernel == "RandomAccess"


def test_figure7_ampom_below_noprefetch(matrix):
    f7 = figures.figure7(matrix)
    for kernel in f7:
        for (_, a), (_, n) in zip(f7[kernel]["AMPoM"], f7[kernel]["NoPrefetch"]):
            assert a < n


def test_figure8_stream_above_randomaccess(matrix):
    f8 = figures.figure8(matrix)
    assert f8["STREAM"][-1][1] > f8["RandomAccess"][-1][1]


def test_figure11_overheads_are_small(matrix):
    f11 = figures.figure11(matrix)
    for series in f11.values():
        assert all(0 <= pct < 1.0 for _, pct in series)


def test_headline_claims_structure(matrix):
    claims = figures.headline_claims(matrix)
    assert set(claims) == {"STREAM", "RandomAccess"}
    for metrics in claims.values():
        assert set(metrics) == {
            "freeze_avoided_pct",
            "faults_prevented_pct",
            "ampom_overhead_pct",
            "noprefetch_penalty_pct",
        }


def test_scaled_config_caps_zone():
    cfg = figures.scaled_config(1 / 8)
    assert cfg.ampom.max_zone_pages == 64
    full = figures.scaled_config(1.0)
    assert full.ampom.max_zone_pages == 256


def test_figure10_shape_small():
    f10 = figures.figure10(
        scale=SMALL, allocated_mb=575, working_set_mbs=(115, 575)
    )
    # AMPoM grows with the working set; openMosix pays the full allocation.
    assert f10["AMPoM"][0][1] < f10["AMPoM"][1][1]
    assert f10["AMPoM"][0][1] < f10["openMosix"][0][1]
