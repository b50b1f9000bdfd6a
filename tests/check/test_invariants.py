"""The invariant checker: clean runs pass, corrupted state is caught."""

from __future__ import annotations

import pytest

from repro.cluster.runner import MigrationRun
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
    run = MigrationRun(
        workload if workload is not None else SequentialWorkload(mib(1), sweeps=1),
        strategy if strategy is not None else AmpomMigration(),
        config=config,
    )
    run.execute()
    return run


class TestCleanRuns:
    def test_ampom_run_passes_all_checks(self):
        run = _checked_run()
        assert run.checker is not None
        assert run.checker.deep_audits >= 1  # at least the final audit

    def test_noprefetch_run_passes_all_checks(self):
        run = _checked_run(strategy=NoPrefetchMigration())
        assert run.checker.deep_audits >= 1

    def test_checker_observed_every_fault(self):
        run = _checked_run(workload=StridedWorkload(mib(1), streams=2))
        c = run.result.counters
        observed = run.checker._observed
        assert observed[FaultKind.MAJOR] == c.major_faults
        assert observed[FaultKind.IN_FLIGHT_WAIT] == c.inflight_waits
        assert observed[FaultKind.MINOR_BUFFERED] == c.minor_buffered_faults

    def test_deep_audit_interval_respected(self):
        run = _checked_run(deep_audit_interval=8)
        faults = sum(run.checker._observed.values())
        # One audit per interval boundary plus the final one.
        assert run.checker.deep_audits == faults // 8 + 1

    def test_checks_do_not_change_results(self):
        plain = MigrationRun(SequentialWorkload(mib(1), sweeps=1), AmpomMigration())
        result_plain = plain.execute()
        result_checked = _checked_run().result
        assert result_plain.run_time == result_checked.run_time
        assert result_plain.freeze_time == result_checked.freeze_time
        assert result_plain.counters.as_dict() == result_checked.counters.as_dict()


class TestViolationsDetected:
    """Corrupt a finished run's state and confirm the audit catches it."""

    def test_leaked_page_fails_residency_conservation(self):
        run = _checked_run()
        _leak_a_mapped_page(run.outcome.residency)
        with pytest.raises(InvariantViolation) as exc:
            run.checker._check_cheap()
        assert exc.value.invariant == "residency-conservation"

    def test_duplicated_page_fails_disjointness(self):
        run = _checked_run()
        res = run.outcome.residency
        vpn = res.mapped_pages()[0]
        res.remote_flags[vpn] = 1
        res._n_remote += 1
        with pytest.raises(InvariantViolation) as exc:
            run.checker.deep_audit()
        assert exc.value.invariant in ("residency-disjointness", "hpt-split")

    def test_flag_without_its_count_fails_flag_count(self):
        run = _checked_run()
        res = run.outcome.residency
        res.mapped_flags[res.mapped_pages()[0]] = 0  # the running count still has it
        with pytest.raises(InvariantViolation) as exc:
            run.checker.deep_audit()
        assert exc.value.invariant == "flag-count"
        assert "mapped flags hold" in exc.value.detail

    def test_mpt_drift_fails_split_audit(self):
        run = _checked_run()
        vpn = run.outcome.residency.mapped_pages()[0]
        run.outcome.mpt.mark_home(vpn)
        with pytest.raises(InvariantViolation) as exc:
            run.checker.deep_audit()
        assert exc.value.invariant == "mpt-split"

    def test_counter_drift_fails_consistency(self):
        run = _checked_run()
        run.result.counters.major_faults += 1
        with pytest.raises(InvariantViolation) as exc:
            run.checker._check_cheap()
        assert exc.value.invariant == "fault-counter-consistency"

    def test_phantom_fetch_fails_flow_conservation(self):
        run = _checked_run()
        run.result.counters.pages_demand_fetched += 1
        with pytest.raises(InvariantViolation) as exc:
            run.checker._check_cheap()
        assert exc.value.invariant == "fetch-flow-conservation"

    def test_clock_running_backwards_detected(self):
        run = _checked_run()
        with pytest.raises(InvariantViolation) as exc:
            run.checker.on_sim_event(-1.0)
        assert exc.value.invariant == "monotonic-clock"

    def test_request_naming_page_twice_detected(self):
        run = _checked_run()
        vpn = next(iter(run.outcome.residency.remote), None)
        if vpn is None:  # fully fetched: synthesize one
            vpn = run.outcome.residency.mapped_pages()[-1] + 1
        with pytest.raises(InvariantViolation) as exc:
            run.checker.on_request([vpn], [vpn])
        assert exc.value.invariant == "duplicate-transfer"

    def test_request_for_local_page_detected(self):
        run = _checked_run()
        vpn = run.outcome.residency.mapped_pages()[0]
        with pytest.raises(InvariantViolation) as exc:
            run.checker.on_request([vpn], [])
        assert exc.value.invariant == "duplicate-transfer"
        assert "mapped" in exc.value.detail


class TestStructuredException:
    def test_violation_carries_invariant_detail_and_trace(self):
        run = _checked_run()
        _leak_a_mapped_page(run.outcome.residency)
        with pytest.raises(InvariantViolation) as exc:
            run.checker._check_cheap()
        violation = exc.value
        assert violation.invariant == "residency-conservation"
        assert "residency tracks" in violation.detail
        assert isinstance(violation.trace, tuple)
        assert len(violation.trace) >= 1  # recent fault events attached
        assert "residency-conservation" in str(violation)

    def test_trace_bounded_by_spec_depth(self):
        run = _checked_run(trace_depth=4)
        _leak_a_mapped_page(run.outcome.residency)
        with pytest.raises(InvariantViolation) as exc:
            run.checker._check_cheap()
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
