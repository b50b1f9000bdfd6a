"""Tests for the full-scale freeze-time helpers (figure 5's fast path)."""

from __future__ import annotations

import pytest

from repro.errors import MigrationError
from repro.experiments import figures
from repro.experiments.calibration import PAPER_FREEZE_DGEMM_575


def test_freeze_time_full_scale_dgemm_575_matches_paper():
    """The paper's flagship numbers: 0.6 / 53.9 / 0.07 s (section 5.2)."""
    measured = {
        scheme: figures.freeze_time("DGEMM", 575, scheme)
        for scheme in ("AMPoM", "openMosix", "NoPrefetch")
    }
    assert measured["AMPoM"] == pytest.approx(PAPER_FREEZE_DGEMM_575["AMPoM"], rel=0.5)
    assert measured["openMosix"] == pytest.approx(
        PAPER_FREEZE_DGEMM_575["openMosix"], rel=0.25
    )
    assert measured["NoPrefetch"] < 0.1


def test_freeze_ordering_at_full_scale():
    for kernel, mb in (("STREAM", 115), ("FFT", 513)):
        nopf = figures.freeze_time(kernel, mb, "NoPrefetch")
        ampom = figures.freeze_time(kernel, mb, "AMPoM")
        om = figures.freeze_time(kernel, mb, "openMosix")
        assert nopf < ampom < om


def test_figure5_full_scale_structure():
    data = figures.figure5_full_scale(kernels=("RandomAccess",))
    series = data["RandomAccess"]["openMosix"]
    assert [mb for mb, _ in series] == [65, 129, 260, 513]
    freezes = [t for _, t in series]
    assert freezes == sorted(freezes)


def test_measure_freeze_is_single_use():
    from repro.cluster.session import ScenarioRuntime
    from repro.cluster.topology import two_node_spec
    from repro.migration.openmosix import OpenMosixMigration
    from repro.workloads.synthetic import SequentialWorkload
    from repro.units import mib

    run = ScenarioRuntime(two_node_spec(SequentialWorkload(mib(1)), OpenMosixMigration()))
    run.measure_freeze()
    with pytest.raises(MigrationError):
        run.measure_freeze()
    with pytest.raises(MigrationError):
        run.execute()
