"""The invariant checker: clean runs pass, corrupted state is caught."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.config import CheckSpec, SimulationConfig
from repro.errors import InvariantViolation
from repro.mem.fault import FaultKind
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload, StridedWorkload


def _leak_a_mapped_page(res):
    """Drop a mapped page from the tracker without any transition."""
    vpn = res.mapped_pages()[-1]
    res.mapped_flags[vpn] = 0
    res._n_mapped -= 1


def _checked_run(workload=None, strategy=None, **spec_kwargs):
    config = SimulationConfig().with_(checks=CheckSpec(enabled=True, **spec_kwargs))
    run = ScenarioRuntime(
        two_node_spec(
            workload if workload is not None else SequentialWorkload(mib(1), sweeps=1),
            strategy if strategy is not None else AmpomMigration(),
            config=config,
        )
    )
    run.execute()
    return run


class TestCleanRuns:
    def test_ampom_run_passes_all_checks(self):
        run = _checked_run()
        assert run.checkers[0] is not None
        assert run.checkers[0].deep_audits >= 1  # at least the final audit

    def test_noprefetch_run_passes_all_checks(self):
        run = _checked_run(strategy=NoPrefetchMigration())
        assert run.checkers[0].deep_audits >= 1

    def test_checker_observed_every_fault(self):
        run = _checked_run(workload=StridedWorkload(mib(1), streams=2))
        c = run.results[0].counters
        observed = run.checkers[0]._observed
        assert observed[FaultKind.MAJOR] == c.major_faults
        assert observed[FaultKind.IN_FLIGHT_WAIT] == c.inflight_waits
        assert observed[FaultKind.MINOR_BUFFERED] == c.minor_buffered_faults

    def test_deep_audit_interval_respected(self):
        run = _checked_run(deep_audit_interval=8)
        faults = sum(run.checkers[0]._observed.values())
        # One audit per interval boundary plus the final one.
        assert run.checkers[0].deep_audits == faults // 8 + 1

    def test_checks_do_not_change_results(self):
        plain = two_node_spec(SequentialWorkload(mib(1), sweeps=1), AmpomMigration())
        result_plain = ScenarioRuntime(plain).execute()[0]
        result_checked = _checked_run().results[0]
        assert result_plain.run_time == result_checked.run_time
        assert result_plain.freeze_time == result_checked.freeze_time
        assert result_plain.counters.as_dict() == result_checked.counters.as_dict()


class TestViolationsDetected:
    """Corrupt a finished run's state and confirm the audit catches it."""

    def test_leaked_page_fails_residency_conservation(self):
        run = _checked_run()
        _leak_a_mapped_page(run.outcomes[0].residency)
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0]._check_cheap()
        assert exc.value.invariant == "residency-conservation"

    def test_duplicated_page_fails_disjointness(self):
        run = _checked_run()
        res = run.outcomes[0].residency
        vpn = res.mapped_pages()[0]
        res.remote_flags[vpn] = 1
        res._n_remote += 1
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0].deep_audit()
        assert exc.value.invariant in ("residency-disjointness", "hpt-split")

    def test_flag_without_its_count_fails_flag_count(self):
        run = _checked_run()
        res = run.outcomes[0].residency
        res.mapped_flags[res.mapped_pages()[0]] = 0  # the running count still has it
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0].deep_audit()
        assert exc.value.invariant == "flag-count"
        assert "mapped flags hold" in exc.value.detail

    def test_mpt_drift_fails_split_audit(self):
        run = _checked_run()
        vpn = run.outcomes[0].residency.mapped_pages()[0]
        run.outcomes[0].mpt.mark_home(vpn)
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0].deep_audit()
        assert exc.value.invariant == "mpt-split"

    def test_counter_drift_fails_consistency(self):
        run = _checked_run()
        run.results[0].counters.major_faults += 1
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0]._check_cheap()
        assert exc.value.invariant == "fault-counter-consistency"

    def test_phantom_fetch_fails_flow_conservation(self):
        run = _checked_run()
        run.results[0].counters.pages_demand_fetched += 1
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0]._check_cheap()
        assert exc.value.invariant == "fetch-flow-conservation"

    def test_clock_running_backwards_detected(self):
        run = _checked_run()
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0].on_sim_event(-1.0)
        assert exc.value.invariant == "monotonic-clock"

    def test_request_naming_page_twice_detected(self):
        run = _checked_run()
        vpn = next(iter(run.outcomes[0].residency.remote), None)
        if vpn is None:  # fully fetched: synthesize one
            vpn = run.outcomes[0].residency.mapped_pages()[-1] + 1
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0].on_request([vpn], [vpn])
        assert exc.value.invariant == "duplicate-transfer"

    def test_request_for_local_page_detected(self):
        run = _checked_run()
        vpn = run.outcomes[0].residency.mapped_pages()[0]
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0].on_request([vpn], [])
        assert exc.value.invariant == "duplicate-transfer"
        assert "mapped" in exc.value.detail


class TestStructuredException:
    def test_violation_carries_invariant_detail_and_trace(self):
        run = _checked_run()
        _leak_a_mapped_page(run.outcomes[0].residency)
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0]._check_cheap()
        violation = exc.value
        assert violation.invariant == "residency-conservation"
        assert "residency tracks" in violation.detail
        assert isinstance(violation.trace, tuple)
        assert len(violation.trace) >= 1  # recent fault events attached
        assert "residency-conservation" in str(violation)

    def test_trace_bounded_by_spec_depth(self):
        run = _checked_run(trace_depth=4)
        _leak_a_mapped_page(run.outcomes[0].residency)
        with pytest.raises(InvariantViolation) as exc:
            run.checkers[0]._check_cheap()
        assert len(exc.value.trace) <= 4


class TestEnvToggle:
    def test_repro_checks_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "1")
        assert CheckSpec.from_env().enabled

    def test_zero_and_empty_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "0")
        assert not CheckSpec.from_env().enabled
        monkeypatch.setenv("REPRO_CHECKS", "")
        assert not CheckSpec.from_env().enabled
        monkeypatch.delenv("REPRO_CHECKS")
        assert not CheckSpec.from_env().enabled
