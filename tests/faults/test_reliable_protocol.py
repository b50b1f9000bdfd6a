"""End-to-end tests of the reliable remote-paging protocol under faults."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.config import FaultSpec, RetrySpec, SimulationConfig
from repro.errors import MigrationError
from repro.faults import FaultEventKind
from repro.migration.ampom import AmpomMigration
from repro.migration.ffa import FfaMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload


def run_with(faults: FaultSpec, *, seed=0, retry=None, strategy=None, size=mib(1)):
    config = SimulationConfig(faults=faults, seed=seed)
    if retry is not None:
        config = config.with_(retry=retry)
    return ScenarioRuntime(
        two_node_spec(
            SequentialWorkload(size),
            strategy if strategy is not None else AmpomMigration(),
            config=config,
        )
    )


def clean_result(strategy=None, size=mib(1), seed=0):
    spec = two_node_spec(
        SequentialWorkload(size),
        strategy if strategy is not None else AmpomMigration(),
        config=SimulationConfig(seed=seed),
    )
    return ScenarioRuntime(spec).execute()[0]


# ----------------------------------------------------------------------
def test_zero_fault_spec_is_bit_identical_to_seed_behaviour():
    baseline = clean_result()
    gated = run_with(FaultSpec(loss_rate=0.0)).execute()[0]
    assert gated.to_dict() == baseline.to_dict()


def test_dropped_pages_are_retransmitted_and_run_completes():
    baseline = clean_result()
    run = run_with(FaultSpec(loss_rate=0.1))
    (result,) = run.execute()
    c = result.counters
    assert c.messages_dropped > 0
    assert c.request_timeouts > 0
    assert c.retransmits > 0
    # Recovery is not free: the run stalls through the timeouts...
    assert result.run_time > baseline.run_time
    # ...but every page still got there.
    assert c.pages_copied == baseline.counters.pages_copied
    log = run.injection_log
    assert log.count(FaultEventKind.TIMEOUT) == c.request_timeouts
    assert log.count(FaultEventKind.RETRANSMIT) == c.retransmits


def test_retransmission_timeouts_back_off():
    run = run_with(
        FaultSpec(deputy_crash_windows=((0.0, 0.4),)),
        retry=RetrySpec(timeout_s=0.02, backoff=2.0, max_attempts=8, jitter_frac=0.0),
    )
    run.execute()
    timeouts = [e for e in run.injection_log.events(FaultEventKind.TIMEOUT)]
    assert len(timeouts) >= 2
    # Consecutive timeouts for one awaited page stretch apart (exponential
    # backoff): each gap at least matches the previous one.
    gaps = [b.time - a.time for a, b in zip(timeouts, timeouts[1:])]
    assert all(later >= earlier for earlier, later in zip(gaps, gaps[1:]))


def test_deputy_crash_degrades_to_demand_only_then_recovers():
    baseline = clean_result()
    start = baseline.freeze_time + 0.25 * baseline.run_time
    # Long enough for two consecutive retransmission timeouts (the crash
    # heuristic) to expire inside the outage.
    end = start + max(0.4, 0.5 * baseline.run_time)
    run = run_with(FaultSpec(deputy_crash_windows=((start, end),)))
    (result,) = run.execute()
    c = result.counters
    assert c.deputy_crash_detections >= 1
    assert c.prefetch_writeoffs > 0  # in-flight prefetches were written off
    assert run.injection_log.count(FaultEventKind.CRASH_DETECT) >= 1
    assert run.injection_log.count(FaultEventKind.RECOVER) >= 1
    # Degraded + recovered, and the migrant still touched every page.
    assert c.pages_copied + c.prefetch_writeoffs >= baseline.counters.pages_copied
    assert result.run_time > baseline.run_time


def test_exhausted_retries_raise_instead_of_hanging():
    run = run_with(
        FaultSpec(deputy_crash_windows=((0.0, 1e9),)),
        retry=RetrySpec(timeout_s=0.01, backoff=2.0, max_attempts=2, jitter_frac=0.0),
        strategy=NoPrefetchMigration(),
    )
    with pytest.raises(MigrationError, match="retr"):
        run.execute()


def test_fault_runs_are_deterministic():
    spec = FaultSpec(loss_rate=0.2, duplicate_rate=0.05, delay_rate=0.1, delay_s=0.002)
    run_a = run_with(spec, seed=3)
    run_b = run_with(spec, seed=3)
    (result_a,) = run_a.execute()
    (result_b,) = run_b.execute()
    assert result_a.to_dict() == result_b.to_dict()
    assert run_a.injection_log.schedule() == run_b.injection_log.schedule()


def test_different_seeds_draw_different_fault_schedules():
    spec = FaultSpec(loss_rate=0.2)
    a = run_with(spec, seed=1)
    b = run_with(spec, seed=2)
    a.execute()
    b.execute()
    assert a.injection_log.schedule() != b.injection_log.schedule()


def test_ffa_rejects_fault_injection():
    with pytest.raises(MigrationError, match="deputy"):
        run_with(FaultSpec(loss_rate=0.1), strategy=FfaMigration())


def test_noprefetch_under_loss_also_completes():
    baseline = clean_result(strategy=NoPrefetchMigration())
    result = run_with(FaultSpec(loss_rate=0.2), strategy=NoPrefetchMigration()).execute()[0]
    assert result.counters.retransmits > 0
    assert result.counters.pages_copied == baseline.counters.pages_copied
