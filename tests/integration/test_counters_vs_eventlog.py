"""Cross-module consistency: Counters vs the per-fault event log.

Runs a figure-7-style scenario (size-scaled DGEMM under AMPoM) with both
the columnar :class:`~repro.metrics.eventlog.FaultLog` and the
:mod:`repro.check` invariant checker attached, then asserts the two
independent recording paths agree event for event — the wiring the
figure-7 "demand requests prevented" claim rests on.
"""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.config import CheckSpec
from repro.experiments import figures
from repro.mem.fault import FaultKind
from repro.metrics.eventlog import FaultLog
from repro.workloads.hpcc import hpcc_workload

SCALE = 1.0 / 16.0


@pytest.fixture(scope="module")
def fig7_run():
    log = FaultLog()
    config = figures.scaled_config(SCALE).with_(checks=CheckSpec(enabled=True))
    run = ScenarioRuntime(
        two_node_spec(
            hpcc_workload("DGEMM", 115, scale=SCALE),
            figures.make_strategy("AMPoM"),
            config=config,
            fault_log=log,
        )
    )
    (result,) = run.execute()
    return run, result, log


def test_log_records_every_fault(fig7_run):
    _, result, log = fig7_run
    c = result.counters
    total_faults = (
        c.major_faults + c.inflight_waits + c.minor_buffered_faults + c.create_faults
    )
    assert len(log) == total_faults > 0


def test_per_kind_counts_agree(fig7_run):
    _, result, log = fig7_run
    c = result.counters
    assert log.count(FaultKind.MAJOR) == c.major_faults
    assert log.count(FaultKind.IN_FLIGHT_WAIT) == c.inflight_waits
    assert log.count(FaultKind.MINOR_BUFFERED) == c.minor_buffered_faults
    assert log.count(FaultKind.MINOR_CREATE) == c.create_faults


def test_prefetch_hits_equal_faults_avoided(fig7_run):
    """Figure 7's quantity: every fault that found its page buffered or
    already on the wire is one avoided blocking demand request, so the
    prefetch-hit counters must equal the avoided faults in the log —
    and on a clean run every blocking fault sends exactly one request."""
    _, result, log = fig7_run
    c = result.counters
    avoided = log.count(FaultKind.IN_FLIGHT_WAIT) + log.count(FaultKind.MINOR_BUFFERED)
    assert c.inflight_waits + c.minor_buffered_faults == avoided
    assert avoided > 0  # AMPoM must actually be prefetching here
    assert c.demand_requests == log.count(FaultKind.MAJOR)


def test_prefetched_pages_column_agrees(fig7_run):
    _, result, log = fig7_run
    assert sum(e.prefetched for e in log.events()) == result.counters.pages_prefetched


def test_logged_stalls_sum_to_budget(fig7_run):
    _, result, log = fig7_run
    assert log.total_stall() == pytest.approx(result.budget.stall, rel=1e-9)


def test_every_fetched_page_was_copied_in(fig7_run):
    """DGEMM references all it fetches; demand + prefetched pages all end
    up copied into the address space."""
    _, result, _ = fig7_run
    c = result.counters
    assert c.pages_copied == c.pages_demand_fetched + c.pages_prefetched


def test_checker_and_log_saw_the_same_events(fig7_run):
    run, _, log = fig7_run
    checker = run.checkers[0]
    assert checker is not None
    for kind in FaultKind:
        assert checker._observed[kind] == log.count(kind)
