"""The differential oracle: references agree with the production engine,
and the oracle actually fires on a disagreement."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracle import (
    DifferentialOracle,
    ref_outstanding_streams,
    ref_select_dependent_pages,
    ref_spatial_locality_score,
    ref_stride_counts,
    ref_zone_size,
)
from repro.core.incremental import IncrementalWindow
from repro.core.zone import clamp_zone_size, readahead_fallback, select_from_streams
from repro.errors import InvariantViolation

from ..core.conftest import window_of


def _collapse(pages: list[int]) -> list[int]:
    """Drop consecutive repeats: the reference stream a window records."""
    return [vpn for i, vpn in enumerate(pages) if i == 0 or pages[i - 1] != vpn]


windows = st.lists(st.integers(min_value=0, max_value=60), max_size=25).map(_collapse)
dmaxes = st.integers(min_value=1, max_value=6)


def _cpu_ratio(window):
    """``c'/c`` as the prefetcher derives it from the window."""
    c = window.mean_cpu()
    return (window.last_cpu() / c) if c > 1e-9 else 1.0


def _select(window, n, address_limit):
    """Section 3.4 as the prefetcher runs it: split ``n`` over the
    outstanding streams, or read ahead of the last page without one."""
    if n <= 0 or not len(window):
        return []
    streams = window.outstanding_streams()
    if streams:
        return select_from_streams(streams, n, address_limit)
    return readahead_fallback(window.last_page, n, address_limit)


class TestReferencesMatchProduction:
    """The O(l²) transcriptions and the incremental engine are two
    independent codings of the same paper text; they must agree exactly
    on every window (tests/core/test_incremental.py compares ``r`` and
    ``c'/c`` after every record of arbitrary fault streams)."""

    @given(windows, dmaxes)
    def test_stride_counts(self, pages, dmax):
        assert ref_stride_counts(pages, dmax) == window_of(pages, dmax).stride_counts()

    @given(windows, dmaxes)
    def test_spatial_locality_score(self, pages, dmax):
        assert ref_spatial_locality_score(pages, dmax) == (
            window_of(pages, dmax).locality_score()
        )

    @given(windows, dmaxes)
    def test_outstanding_streams(self, pages, dmax):
        production = [
            (s.stride, s.end_index, s.pivot)
            for s in window_of(pages, dmax).outstanding_streams()
        ]
        assert ref_outstanding_streams(pages, dmax) == production

    @given(windows, st.integers(min_value=0, max_value=40), dmaxes)
    def test_dependent_page_selection(self, pages, n, dmax):
        limit = 1000
        assert ref_select_dependent_pages(pages, n, dmax, limit) == (
            _select(window_of(pages, dmax), n, limit)
        )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.001, max_value=1e6),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=64, max_value=4096),
    )
    def test_zone_size(self, s, r, t, c, lo, hi):
        assert ref_zone_size(s, r, t, c, hi, lo) == clamp_zone_size(c * s * r * t, lo, hi)

    @pytest.mark.parametrize("cpu_ratio", [1.0, -1.0])
    @pytest.mark.parametrize(
        "rate, horizon", [(float("inf"), 1.0), (float("inf"), 0.0), (1e305, 1e5)]
    )
    def test_zone_size_non_finite_product(self, rate, horizon, cpu_ratio):
        assert ref_zone_size(1.0, rate, horizon, cpu_ratio, 256, 8) == (
            clamp_zone_size(cpu_ratio * 1.0 * rate * horizon, 8, 256)
        )

    def test_paper_worked_example(self):
        pages = [10, 99, 11, 34, 12, 85]
        assert ref_spatial_locality_score(pages, 4) == pytest.approx(0.25)
        assert ref_stride_counts(pages, 4) == {1: 0, 2: 3, 3: 0, 4: 0}


class TestVerifyAnalysis:
    def _analysis(self, **overrides):
        """One genuine analysis of a sequential window whose CPU share
        rose; overrides inject a disagreement for the oracle to catch."""
        dmax, fallback = 4, 0.002
        window = IncrementalWindow(20, dmax)
        for vpn, t, cpu in ((5, 0.0, 0.5), (6, 0.001, 0.5), (7, 0.002, 1.0), (8, 0.003, 1.0)):
            window.record(vpn, t, cpu)
        rtt, td = 0.001, 0.0005
        rate = window.paging_rate(fallback)
        cpu_ratio = _cpu_ratio(window)
        horizon = rtt + td + 1.0 / rate
        score = window.locality_score()
        n = clamp_zone_size(cpu_ratio * score * rate * horizon, 0, 64)
        kwargs = dict(
            pages=window.pages,
            dmax=dmax,
            score=score,
            paging_rate=rate,
            horizon=horizon,
            rtt_s=rtt,
            page_transfer_time=td,
            times=window.times,
            cpus=window.cpus,
            fallback_interval=fallback,
            cpu_ratio=cpu_ratio,
            zone_size=n,
            max_pages=64,
            min_pages=0,
            streams=window.outstanding_streams(),
            dependent=_select(window, n, 1000),
            address_limit=1000,
        )
        kwargs.update(overrides)
        return kwargs

    def test_correct_analysis_verifies(self):
        oracle = DifferentialOracle()
        analysis = self._analysis()
        assert analysis["zone_size"] > 0 and analysis["cpu_ratio"] != 1.0
        oracle.verify_analysis(**analysis)
        assert oracle.verified == 1

    def test_wrong_score_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(score=0.5))
        assert exc.value.invariant == "oracle:eq1-score"

    def test_wrong_paging_rate_caught(self):
        oracle = DifferentialOracle()
        rate = self._analysis()["paging_rate"]
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(paging_rate=rate * (1 + 1e-15)))
        assert exc.value.invariant == "oracle:eq3-paging-rate"

    def test_wrong_cpu_ratio_caught(self):
        oracle = DifferentialOracle()
        ratio = self._analysis()["cpu_ratio"]
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(cpu_ratio=ratio * (1 + 1e-15)))
        assert exc.value.invariant == "oracle:eq2-cpu-ratio"

    def test_wrong_horizon_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(horizon=42.0))
        assert exc.value.invariant in ("oracle:eq3-horizon", "oracle:eq2-zone-size")

    def test_wrong_zone_size_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(zone_size=63))
        assert exc.value.invariant == "oracle:eq2-zone-size"

    def test_wrong_streams_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(streams=[]))
        assert exc.value.invariant == "oracle:outstanding-streams"

    def test_wrong_selection_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(dependent=[999]))
        assert exc.value.invariant == "oracle:dependent-zone-selection"

    def test_failed_analysis_not_counted(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation):
            oracle.verify_analysis(**self._analysis(score=0.5))
        assert oracle.verified == 0


class TestOracleRunsInSimulation:
    def test_oracle_attached_and_exercised(self):
        from repro.cluster.session import ScenarioRuntime
        from repro.cluster.topology import two_node_spec
        from repro.config import CheckSpec, SimulationConfig
        from repro.migration.ampom import AmpomMigration
        from repro.units import mib
        from repro.workloads.synthetic import SequentialWorkload

        run = ScenarioRuntime(
            two_node_spec(
                SequentialWorkload(mib(1), sweeps=1),
                AmpomMigration(),
                config=SimulationConfig().with_(checks=CheckSpec(enabled=True)),
            )
        )
        run.execute()
        policy = run.outcomes[0].policy
        oracle = policy.check_oracle
        assert oracle is not None
        # One verified analysis per consulted fault.
        assert oracle.verified == policy.analyses > 0

    def test_oracle_can_be_disabled_separately(self):
        from repro.cluster.session import ScenarioRuntime
        from repro.cluster.topology import two_node_spec
        from repro.config import CheckSpec, SimulationConfig
        from repro.migration.ampom import AmpomMigration
        from repro.units import mib
        from repro.workloads.synthetic import SequentialWorkload

        run = ScenarioRuntime(
            two_node_spec(
                SequentialWorkload(mib(1), sweeps=1),
                AmpomMigration(),
                config=SimulationConfig().with_(checks=CheckSpec(enabled=True, oracle=False)),
            )
        )
        run.execute()
        assert run.outcomes[0].policy.check_oracle is None
        assert run.checkers[0].deep_audits >= 1
