"""The differential oracle: references agree with production, and the
oracle actually fires on a disagreement."""

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
from repro.core.locality import spatial_locality_score
from repro.core.stride import find_outstanding_streams, stride_counts
from repro.core.zone import dependent_zone_size, select_dependent_pages
from repro.errors import InvariantViolation

windows = st.lists(st.integers(min_value=0, max_value=60), max_size=25)
dmaxes = st.integers(min_value=1, max_value=6)


class TestReferencesMatchProduction:
    """The naive O(l²) transcriptions and the indexed implementations are
    two independent codings of the same paper text; they must agree on
    every input."""

    @given(windows, dmaxes)
    def test_stride_counts(self, pages, dmax):
        assert ref_stride_counts(pages, dmax) == stride_counts(pages, dmax)

    @given(windows, dmaxes)
    def test_spatial_locality_score(self, pages, dmax):
        assert ref_spatial_locality_score(pages, dmax) == pytest.approx(
            spatial_locality_score(pages, dmax)
        )

    @given(windows, dmaxes)
    def test_outstanding_streams(self, pages, dmax):
        production = [
            (s.stride, s.end_index, s.pivot)
            for s in find_outstanding_streams(pages, dmax)
        ]
        assert ref_outstanding_streams(pages, dmax) == production

    @given(windows, st.integers(min_value=0, max_value=40), dmaxes)
    def test_dependent_page_selection(self, pages, n, dmax):
        limit = 1000
        assert ref_select_dependent_pages(pages, n, dmax, limit) == (
            select_dependent_pages(pages, n, dmax, limit)
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
        assert ref_zone_size(s, r, t, c, hi, lo) == dependent_zone_size(
            s, r, t, cpu_ratio=c, max_pages=hi, min_pages=lo
        )

    @pytest.mark.parametrize("cpu_ratio", [1.0, -1.0])
    @pytest.mark.parametrize(
        "rate, horizon", [(float("inf"), 1.0), (float("inf"), 0.0), (1e305, 1e5)]
    )
    def test_zone_size_non_finite_product(self, rate, horizon, cpu_ratio):
        assert ref_zone_size(1.0, rate, horizon, cpu_ratio, 256, 8) == (
            dependent_zone_size(
                1.0, rate, horizon, cpu_ratio=cpu_ratio, max_pages=256, min_pages=8
            )
        )

    def test_paper_worked_example(self):
        pages = [10, 99, 11, 34, 12, 85]
        assert ref_spatial_locality_score(pages, 4) == pytest.approx(0.25)
        assert ref_stride_counts(pages, 4) == {1: 0, 2: 3, 3: 0, 4: 0}


class TestVerifyAnalysis:
    def _analysis(self, **overrides):
        """One genuine analysis of a sequential window; overrides inject
        a disagreement for the oracle to catch."""
        pages = [5, 6, 7, 8]
        dmax = 4
        rtt, td, rate, cpu_ratio = 0.001, 0.0005, 100.0, 1.0
        horizon = rtt + td + 1.0 / rate
        score = spatial_locality_score(pages, dmax)
        n = dependent_zone_size(score, rate, horizon, cpu_ratio=cpu_ratio, max_pages=64)
        streams = find_outstanding_streams(pages, dmax)
        kwargs = dict(
            pages=pages,
            dmax=dmax,
            score=score,
            paging_rate=rate,
            horizon=horizon,
            rtt_s=rtt,
            page_transfer_time=td,
            cpu_ratio=cpu_ratio,
            zone_size=n,
            max_pages=64,
            min_pages=0,
            streams=streams,
            dependent=select_dependent_pages(pages, n, dmax, 1000, streams=streams),
            address_limit=1000,
        )
        kwargs.update(overrides)
        return kwargs

    def test_correct_analysis_verifies(self):
        oracle = DifferentialOracle()
        oracle.verify_analysis(**self._analysis())
        assert oracle.verified == 1

    def test_wrong_score_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(score=0.5))
        assert exc.value.invariant == "oracle:eq1-score"

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
        oracle = run.outcomes[0].policy.check_oracle
        assert oracle is not None
        assert oracle.verified > 0

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
