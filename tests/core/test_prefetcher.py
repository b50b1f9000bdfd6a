"""Unit tests for the AMPoM prefetcher (Algorithm 1 driver)."""

from __future__ import annotations

import sys

import pytest

from repro.check.oracle import DifferentialOracle
from repro.config import AMPoMConfig, HardwareSpec
from repro.core.policy import LinkConditions, PrefetchPolicy
from repro.core.prefetcher import AMPoMPrefetcher
from repro.errors import NetworkError
from repro.mem.residency import ResidencyTracker

COND = LinkConditions(rtt_s=0.002, available_bw_bps=1.25e7)


def make(limit=10_000, **cfg):
    defaults = dict(min_zone_pages=0)
    defaults.update(cfg)
    return AMPoMPrefetcher(AMPoMConfig(**defaults), HardwareSpec(), address_limit=limit)


def residency(remote, mapped=()):
    return ResidencyTracker(remote_pages=remote, mapped_pages=mapped)


def test_is_a_policy():
    assert isinstance(make(), PrefetchPolicy)


def test_sequential_faults_prefetch_ahead():
    pf = make()
    res = residency(remote=range(10_000))
    requested: list[int] = []
    for i, vpn in enumerate(range(100, 120)):
        got = pf.on_fault(vpn, now=i * 0.001, cpu_share=1.0, residency=res, conditions=COND)
        requested.extend(got)
        for page in got:
            res.start_fetch(page, arrival=1e9)  # pending, not local
    assert requested, "a sequential fault stream must trigger prefetching"
    # Prefetched pages continue the stream forward.
    assert all(p > 100 for p in requested)
    assert pf.last_trace.score == pytest.approx(1.0)
    assert pf.last_trace.outstanding_streams >= 1


def test_random_faults_with_no_floor_prefetch_little():
    pf = make()
    res = residency(remote=range(10_000))
    rng_pages = [7, 913, 211, 5531, 97, 4243, 3301, 871, 6007, 1234]
    total = 0
    for i, vpn in enumerate(rng_pages):
        total += len(
            pf.on_fault(vpn, now=i * 0.001, cpu_share=1.0, residency=res, conditions=COND)
        )
    assert total == 0
    assert pf.last_trace.score == 0.0


def test_floor_applies_baseline_read_ahead():
    pf = make(min_zone_pages=8)
    res = residency(remote=range(10_000))
    got = pf.on_fault(500, now=0.0, cpu_share=1.0, residency=res, conditions=COND)
    # Fallback: the 8 pages after the last (only) reference.
    assert got == list(range(501, 509))
    assert pf.last_trace.zone_size == 8


def test_requested_excludes_non_remote_pages():
    pf = make(min_zone_pages=8)
    res = residency(remote=set(range(10_000)) - {501, 503}, mapped={501, 503})
    got = pf.on_fault(500, now=0.0, cpu_share=1.0, residency=res, conditions=COND)
    assert 501 not in got and 503 not in got


def test_requested_excludes_faulting_page():
    pf = make(min_zone_pages=8)
    res = residency(remote=range(10_000))
    got = pf.on_fault(500, now=0.0, cpu_share=1.0, residency=res, conditions=COND)
    assert 500 not in got


def test_zone_grows_with_paging_rate():
    """Eq. 3: N grows with r — faster faulting means deeper zones."""

    def run(dt):
        pf = make()
        res = residency(remote=range(100_000))
        zones = []
        for i in range(30):
            pf.on_fault(1000 + i, now=i * dt, cpu_share=1.0, residency=res, conditions=COND)
            zones.append(pf.last_trace.zone_size)
        return zones[-1]

    assert run(dt=0.0005) > run(dt=0.01)


def test_zone_grows_with_rtt():
    """Eq. 3: N grows with the measured round trip (network busy)."""

    def run(rtt):
        pf = make()
        res = residency(remote=range(100_000))
        cond = LinkConditions(rtt_s=rtt, available_bw_bps=1.25e7)
        for i in range(30):
            pf.on_fault(1000 + i, now=i * 0.001, cpu_share=1.0, residency=res, conditions=cond)
        return pf.last_trace.zone_size

    assert run(0.050) > run(0.001)


def test_zone_grows_when_bandwidth_drops():
    def run(bw):
        pf = make()
        res = residency(remote=range(100_000))
        cond = LinkConditions(rtt_s=0.002, available_bw_bps=bw)
        for i in range(30):
            pf.on_fault(1000 + i, now=i * 0.001, cpu_share=1.0, residency=res, conditions=cond)
        return pf.last_trace.zone_size

    assert run(0.625e6) > run(1.25e7)


def test_zone_capped():
    pf = make(max_zone_pages=16)
    res = residency(remote=range(100_000))
    for i in range(30):
        pf.on_fault(1000 + i, now=i * 1e-5, cpu_share=1.0, residency=res, conditions=COND)
    assert pf.last_trace.zone_size <= 16


def test_cpu_ratio_effect():
    """c'/c > 1 (process expected to get more CPU) deepens the zone."""
    pf_low_then_high = make()
    res = residency(remote=range(100_000))
    # History of throttled CPU (0.25), latest sample full speed.
    for i in range(19):
        pf_low_then_high.on_fault(
            1000 + i, now=i * 0.001, cpu_share=0.25, residency=res, conditions=COND
        )
    pf_low_then_high.on_fault(
        1019, now=19 * 0.001, cpu_share=1.0, residency=res, conditions=COND
    )
    boosted = pf_low_then_high.last_trace.zone_size

    pf_flat = make()
    res2 = residency(remote=range(100_000))
    for i in range(20):
        pf_flat.on_fault(1000 + i, now=i * 0.001, cpu_share=0.25, residency=res2, conditions=COND)
    flat = pf_flat.last_trace.zone_size
    assert boosted > flat


def test_invalid_bandwidth_rejected():
    pf = make()
    with pytest.raises(NetworkError, match="bandwidth"):
        pf.on_fault(
            1,
            now=0.0,
            cpu_share=1.0,
            residency=residency(remote=range(10)),
            conditions=LinkConditions(rtt_s=0.001, available_bw_bps=0.0),
        )


def test_analysis_counter_and_time():
    pf = make()
    assert pf.analysis_time == HardwareSpec().analysis_time_per_fault
    res = residency(remote=range(100))
    pf.on_fault(1, 0.0, 1.0, res, COND)
    pf.on_fault(2, 0.1, 1.0, res, COND)
    assert pf.analyses == 2


@pytest.mark.parametrize(
    "span, bandwidth_bps",
    [(5e-324, 1.25e7), (1e-305, 1e-300)],
    ids=("rate-overflows", "zone-overflows"),
)
def test_tiny_span_saturates_under_oracle(span, bandwidth_bps):
    """Eq. 2/3 stay finite when ``l / span`` or ``N`` overflows: the rate
    saturates at the largest float and ``N`` clamps to ``max_pages``,
    with the differential oracle re-deriving every analysis."""
    pf = make(limit=1000)
    pf.check_oracle = DifferentialOracle()
    res = residency(remote=range(1000))
    cond = LinkConditions(rtt_s=0.002, available_bw_bps=bandwidth_bps)
    for i, vpn in enumerate(range(100, 103)):
        pf.on_fault(vpn, now=i * span, cpu_share=1.0, residency=res, conditions=cond)
    assert pf.check_oracle.verified == 3
    assert pf.last_trace.zone_size == pf.config.max_zone_pages
    assert pf.last_trace.paging_rate <= sys.float_info.max
