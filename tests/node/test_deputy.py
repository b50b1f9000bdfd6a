"""Unit tests for the origin-side deputy (remote paging server)."""

from __future__ import annotations

import math

import pytest

from repro.config import FaultSpec, HardwareSpec, NetworkSpec
from repro.errors import MemoryStateError
from repro.faults import FaultEventKind, FaultInjectionLog, FaultPlan
from repro.mem.page_table import HomePageTable
from repro.net.link import Direction
from repro.node.deputy import Deputy
from repro.obs import Observability, SpanTracer


def make(pages=range(10), fault_plan=None):
    hw = HardwareSpec()
    reply = Direction(NetworkSpec())
    deputy = Deputy(HomePageTable(pages), reply, hw, fault_plan)
    return deputy, reply, hw


#: A one-page request and a multi-page one whose prefetch repeats the
#: demand page, each as (demand, prefetch, pages served in order).
REQUESTS = [([3], [], [3]), ([0], [1, 0, 2, 3], [0, 1, 2, 3])]


def test_demand_page_is_served_first():
    deputy, _, _ = make()
    arrivals = deputy.serve_pages(demand=[5], prefetch=[1, 2], request_arrival=0.0)
    assert arrivals[5] < arrivals[1] < arrivals[2]


def test_served_pages_leave_the_hpt():
    deputy, _, _ = make()
    deputy.serve_pages([1], [2], request_arrival=0.0)
    assert 1 not in deputy.hpt and 2 not in deputy.hpt
    assert deputy.pages_served == 2
    assert deputy.requests_served == 1


def test_serving_missing_page_fails():
    deputy, _, _ = make(pages=[1])
    with pytest.raises(MemoryStateError):
        deputy.serve_pages([99], [], request_arrival=0.0)


def test_duplicate_page_in_request_is_deduped():
    # A page listed both as demand and prefetch is served once (demand
    # wins) and the duplicate is counted, not an error.
    deputy, _, _ = make()
    arrivals = deputy.serve_pages([1], [1, 2], request_arrival=0.0)
    assert set(arrivals) == {1, 2}
    assert arrivals[1] < arrivals[2]
    assert deputy.pages_served == 2
    assert deputy.duplicate_page_requests == 1
    assert 1 not in deputy.hpt


def test_requests_queue_on_deputy_cpu():
    deputy, _, hw = make()
    a1 = deputy.serve_pages([1], [], request_arrival=0.0)
    a2 = deputy.serve_pages([2], [], request_arrival=0.0)
    # Second request starts after the first finished service.
    assert a2[2] > a1[1]
    assert deputy.busy_until > 0


def test_arrivals_pipelined_on_the_wire():
    deputy, reply, hw = make()
    arrivals = deputy.serve_pages([0], [1, 2, 3], request_arrival=0.0)
    times = [arrivals[p] for p in (0, 1, 2, 3)]
    gaps = [b - a for a, b in zip(times, times[1:])]
    wire = (hw.page_size + hw.remote_paging_overhead_bytes + reply.per_message_overhead_bytes) / reply.bandwidth_bps
    # Once the channel saturates, pages arrive one serialization apart.
    assert gaps[-1] == pytest.approx(wire, rel=0.01)


def test_syscall_service():
    deputy, _, hw = make()
    reply_at = deputy.serve_syscall(request_arrival=0.0, service_time=0.001)
    assert reply_at > 0.001
    assert deputy.syscalls_served == 1


def test_syscall_negative_service_time():
    deputy, _, _ = make()
    with pytest.raises(MemoryStateError):
        deputy.serve_syscall(0.0, -0.1)


@pytest.mark.parametrize("demand, prefetch, served", REQUESTS)
def test_arrivals_are_those_of_one_transfer_per_page(demand, prefetch, served):
    # The request queues behind an earlier one, then each page leaves as
    # one message at its release time, as on a twin channel fed the same
    # release times.
    deputy, _, hw = make()
    twin = Direction(NetworkSpec())
    size = hw.page_size + hw.remote_paging_overhead_bytes
    first = deputy.serve_pages([9], [], request_arrival=0.0)
    clock = hw.deputy_request_time + hw.deputy_page_time
    assert first == {9: twin.transfer(size, clock)}
    arrivals = deputy.serve_pages(demand, prefetch, request_arrival=1e-6)
    clock = max(1e-6, clock) + hw.deputy_request_time
    expected = {}
    for vpn in served:
        clock += hw.deputy_page_time
        expected[vpn] = twin.transfer(size, clock)
    assert arrivals == expected
    assert list(arrivals) == served
    assert deputy.busy_until == clock


def test_a_repeated_seq_counts_as_a_duplicate_request():
    deputy, _, _ = make()
    deputy.serve_pages([1], [], request_arrival=0.0, seq=7)
    deputy.serve_pages([2], [3], request_arrival=0.0, seq=7)
    deputy.serve_pages([4], [], request_arrival=0.0, seq=8)
    assert deputy.duplicate_requests == 1
    assert deputy.requests_served == 3


@pytest.mark.parametrize("demand, prefetch, served", REQUESTS)
def test_a_released_page_is_replayed_only_for_a_seq(demand, prefetch, served):
    deputy, reply, _ = make(fault_plan=FaultPlan(FaultSpec(), seed=0))
    deputy.serve_pages(demand, prefetch, request_arrival=0.0, seq=0)
    # A retransmission re-sends every page from the replay cache.
    again = deputy.serve_pages(demand, prefetch, request_arrival=1.0, seq=0)
    assert list(again) == served
    assert deputy.replayed_pages == len(served)
    assert deputy.pages_served == len(served)
    assert reply.total_messages == 2 * len(served)
    # The same request without a seq is no retransmission.
    with pytest.raises(MemoryStateError):
        deputy.serve_pages(demand, prefetch, request_arrival=2.0)


@pytest.mark.parametrize("demand, prefetch, served", REQUESTS)
def test_a_request_inside_a_crash_window_is_ignored(demand, prefetch, served):
    log = FaultInjectionLog()
    plan = FaultPlan(FaultSpec(deputy_crash_windows=((1.0, 2.0),)), seed=0, log=log)
    deputy, reply, _ = make(fault_plan=plan)
    arrivals = deputy.serve_pages(demand, prefetch, request_arrival=1.5, seq=0)
    assert arrivals == dict.fromkeys(served, math.inf)
    assert deputy.requests_ignored == 1
    assert [(e.time, e.channel, e.detail) for e in log.events(FaultEventKind.CRASH_IGNORE)] == [
        (1.5, "deputy", f"pages={len(served)}")
    ]
    assert deputy.pages_served == 0 and deputy.requests_served == 0
    assert reply.total_messages == 0
    assert all(vpn in deputy.hpt for vpn in served)


@pytest.mark.parametrize("seq", [None, 0])
@pytest.mark.parametrize("demand, prefetch, served", REQUESTS)
def test_the_serve_span_precedes_its_wire_spans(demand, prefetch, served, seq):
    deputy, reply, _ = make()
    tracer = SpanTracer()
    deputy.obs = Observability(tracer=tracer)
    reply.trace_hook = tracer.wire_hook()
    deputy.serve_pages(demand, prefetch, request_arrival=0.0, seq=seq)
    spans = tracer.spans
    assert [s.name for s in spans] == ["serve"] + ["msg"] * len(served)
    assert spans[0].args["pages"] == len(served)
