"""Unit tests for the fault event log."""

from __future__ import annotations

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.mem.fault import FaultKind
from repro.metrics.eventlog import FaultLog
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload


def test_record_and_query():
    log = FaultLog()
    log.record(0.0, 10, FaultKind.MAJOR, 4, 0.001)
    log.record(0.5, 11, FaultKind.IN_FLIGHT_WAIT, 0, 0.0002)
    log.record(1.0, 12, FaultKind.MINOR_BUFFERED, 2, 0.0)
    assert len(log) == 3
    assert log[0].vpn == 10
    assert log.count(FaultKind.MAJOR) == 1
    assert [e.vpn for e in log.events(FaultKind.MINOR_BUFFERED)] == [12]
    assert log.total_stall() == pytest.approx(0.0012)
    assert log.fault_rate() == pytest.approx(3.0)


def test_summary_fields():
    log = FaultLog()
    log.record(0.0, 1, FaultKind.MAJOR, 8, 0.001)
    s = log.summary()
    assert s["faults"] == 1
    assert s["major"] == 1
    assert s["prefetched_pages"] == 8
    assert s["mean_stall_s"] == pytest.approx(0.001)
    assert s["mean_prefetched_per_fault"] == pytest.approx(8.0)


def test_empty_log():
    log = FaultLog()
    assert log.fault_rate() == 0.0
    assert log.total_stall() == 0.0
    assert list(log.events()) == []


def test_empty_log_summary_is_all_zero():
    """An empty log must summarize to zeros — no NaN, no division error."""
    s = FaultLog().summary()
    assert set(s) >= {
        "faults",
        "total_stall_s",
        "mean_stall_s",
        "fault_rate_hz",
        "prefetched_pages",
        "mean_prefetched_per_fault",
    }
    assert all(v == 0.0 for v in s.values())


def test_integrated_with_executor():
    log = FaultLog()
    w = SequentialWorkload(mib(1))
    result = ScenarioRuntime(two_node_spec(w, NoPrefetchMigration(), fault_log=log)).execute()[0]
    # Every fault in the counters appears in the log.
    assert len(log) == result.counters.total_faults
    assert log.count(FaultKind.MAJOR) == result.counters.major_faults
    assert log.total_stall() == pytest.approx(result.budget.stall, rel=1e-9)
    times = log.times()
    assert (times[1:] >= times[:-1]).all()


def test_log_captures_prefetch_decisions():
    log = FaultLog()
    w = SequentialWorkload(mib(1))
    result = ScenarioRuntime(two_node_spec(w, AmpomMigration(), fault_log=log)).execute()[0]
    assert sum(e.prefetched for e in log.events()) == result.counters.pages_prefetched
