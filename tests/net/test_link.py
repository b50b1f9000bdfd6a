"""Unit tests for the link model (serialization, FIFO, counters)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import FaultSpec, NetworkSpec
from repro.errors import FaultInjectionError, NetworkError
from repro.faults import FaultPlan, LossyDirection, install_lossy_link
from repro.net.link import COMPACT_THRESHOLD, Direction, Link
from repro.net.network import Network
from repro.net.shaper import TrafficShaper

NON_FINITE = (math.nan, math.inf, -math.inf)


def spec(bw=1e6, lat=0.01, msg=0, page=0):
    return NetworkSpec(
        bandwidth_bps=bw,
        latency_s=lat,
        per_message_overhead_bytes=msg,
        per_page_overhead_bytes=page,
    )


class TestDirection:
    def test_arrival_is_serialization_plus_latency(self):
        d = Direction(spec())
        # 1000 bytes at 1e6 B/s = 1 ms serialization + 10 ms latency.
        assert d.transfer(1000, now=0.0) == pytest.approx(0.011)

    def test_fifo_serialization_queues_back_to_back(self):
        d = Direction(spec())
        a1 = d.transfer(1000, now=0.0)
        a2 = d.transfer(1000, now=0.0)
        assert a2 - a1 == pytest.approx(0.001)  # one serialization apart

    def test_idle_gap_is_not_queued(self):
        d = Direction(spec())
        d.transfer(1000, now=0.0)
        # Submitted after the channel is idle again.
        a = d.transfer(1000, now=5.0)
        assert a == pytest.approx(5.011)

    def test_message_overhead_added(self):
        d = Direction(spec(msg=500))
        assert d.transfer(500, now=0.0) == pytest.approx(0.001 + 0.01)

    def test_transfer_page_adds_page_overhead(self):
        d = Direction(spec(page=1000))
        arrival = d.transfer_page(1000, now=0.0)
        assert arrival == pytest.approx(0.002 + 0.01)

    def test_negative_payload_raises(self):
        d = Direction(spec())
        with pytest.raises(NetworkError):
            d.transfer(-1, now=0.0)

    def test_queuing_delay(self):
        d = Direction(spec())
        assert d.queuing_delay(0.0) == 0.0
        d.transfer(5000, now=0.0)  # busy until 5 ms
        assert d.queuing_delay(0.0) == pytest.approx(0.005)
        assert d.queuing_delay(0.004) == pytest.approx(0.001)
        assert d.queuing_delay(1.0) == 0.0

    def test_counters(self):
        d = Direction(spec(msg=10))
        d.transfer(100, now=0.0)
        d.transfer(200, now=0.0)
        assert d.total_messages == 2
        assert d.total_bytes == 320

    def test_bytes_sent_by_full_transfers(self):
        d = Direction(spec())
        d.transfer(1000, now=0.0)  # serializes over [0, 1ms]
        d.transfer(1000, now=0.0)  # [1ms, 2ms]
        assert d.bytes_sent_by(0.0005) == pytest.approx(500)
        assert d.bytes_sent_by(0.001) == pytest.approx(1000)
        assert d.bytes_sent_by(0.0015) == pytest.approx(1500)
        assert d.bytes_sent_by(10.0) == pytest.approx(2000)

    def test_bytes_sent_by_before_any_transfer(self):
        d = Direction(spec())
        assert d.bytes_sent_by(1.0) == 0.0

    def test_reconfigure_affects_future_transfers_only(self):
        d = Direction(spec())
        a1 = d.transfer(1000, now=0.0)
        d.reconfigure(bandwidth_bps=0.5e6, latency_s=0.02)
        a2 = d.transfer(1000, now=0.0)
        assert a1 == pytest.approx(0.011)
        # Starts after the first (busy until 1 ms), 2 ms serialization, 20 ms lat.
        assert a2 == pytest.approx(0.001 + 0.002 + 0.02)

    def test_reconfigure_validation(self):
        d = Direction(spec())
        with pytest.raises(NetworkError):
            d.reconfigure(0, 0.01)
        with pytest.raises(NetworkError):
            d.reconfigure(1e6, -1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_reconfigure_rejects_non_finite(self, bad):
        d = Direction(spec())
        with pytest.raises(NetworkError, match="bandwidth"):
            d.reconfigure(bad, 0.01)
        with pytest.raises(NetworkError, match="latency"):
            d.reconfigure(1e6, bad)
        assert (d.bandwidth_bps, d.latency_s) == (1e6, 0.01)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),
                st.integers(min_value=1, max_value=10**6),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_arrivals_monotone_for_monotone_submissions(self, submissions):
        """FIFO property: submissions at non-decreasing times arrive in order."""
        d = Direction(spec())
        arrivals = []
        now = 0.0
        for dt, size in submissions:
            now += dt
            arrivals.append(d.transfer(size, now=now))
        assert arrivals == sorted(arrivals)

    @given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=0, max_value=100))
    def test_arrival_never_before_physics(self, size, now):
        """Causality: arrival >= now + serialization + latency."""
        d = Direction(spec())
        arrival = d.transfer(size, now=now)
        assert arrival >= now + size / d.bandwidth_bps + d.latency_s - 1e-12

    @given(st.lists(st.integers(min_value=1, max_value=10**5), min_size=1, max_size=30))
    def test_counter_equals_sum_after_drain(self, sizes):
        d = Direction(spec())
        for s in sizes:
            d.transfer(s, now=0.0)
        assert d.bytes_sent_by(1e9) == pytest.approx(sum(sizes))


class TestLink:
    def test_self_link_rejected(self):
        with pytest.raises(NetworkError):
            Link("a", "a", spec())

    def test_directions_are_independent(self):
        link = Link("a", "b", spec())
        fwd = link.direction("a", "b")
        bwd = link.direction("b", "a")
        fwd.transfer(10**6, now=0.0)  # saturate a->b for 1 s
        assert bwd.queuing_delay(0.0) == 0.0

    def test_unknown_direction_raises(self):
        link = Link("a", "b", spec())
        with pytest.raises(NetworkError):
            link.direction("a", "c")

    def test_reconfigure_shapes_both_directions(self):
        link = Link("a", "b", spec())
        link.reconfigure(0.5e6, 0.002)
        assert link.direction("a", "b").bandwidth_bps == 0.5e6
        assert link.direction("b", "a").latency_s == 0.002

    def test_endpoints(self):
        assert Link("a", "b", spec()).endpoints == ("a", "b")

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_reconfigure_rejects_non_finite(self, bad):
        link = Link("a", "b", spec())
        with pytest.raises(NetworkError):
            link.reconfigure(bad, 0.002)
        with pytest.raises(NetworkError):
            link.reconfigure(0.5e6, bad)
        # Nothing was stored for the directions built later.
        assert link.direction("a", "b").bandwidth_bps == 1e6
        assert link.direction("b", "a").latency_s == 0.01


# ----------------------------------------------------------------------
# batched log compaction
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.sampled_from([0.0, 0.05, 1.0, 4.0]),
)
@settings(max_examples=12, deadline=None)
@example(seed=0, horizon=4.0)
def test_batched_compaction_keeps_every_reading_after_the_cutoff(seed, horizon):
    """For every ``t`` at or after ``now - counter_horizon_s``, the counter
    of a compacting channel equals that of a twin whose horizon is so long
    that it never compacts, while the compacting log stays within an
    eighth of a horizon of the entries that cutoff keeps."""
    compacted = Direction(NetworkSpec(counter_horizon_s=horizon), "compacted")
    reference = Direction(NetworkSpec(counter_horizon_s=1e9), "reference")
    rng = np.random.default_rng(seed)
    n = 3 * COMPACT_THRESHOLD
    # A saturated channel (a 4 s horizon holds more than COMPACT_THRESHOLD
    # entries), with a few idle gaps of about a horizon.
    sizes = rng.integers(0, 9000, n)
    gaps = rng.exponential(4500 / compacted.bandwidth_bps, n)
    gaps += np.where(rng.random(n) < 1e-4, rng.exponential(horizon + 1e-3, n), 0.0)
    now = 0.0
    for i in range(0, n, 64):
        for gap, size in zip(gaps[i : i + 64], sizes[i : i + 64]):
            now += gap
            compacted.transfer(int(size), now)
            reference.transfer(int(size), now)
        cutoff = now - horizon
        late = max(compacted.busy_until, now) + 1e-3
        for t in (cutoff, now, *np.linspace(cutoff, late, 7), late):
            assert compacted.bytes_sent_by(t) == reference.bytes_sent_by(t)
    assert compacted.total_bytes == reference.total_bytes
    assert reference.compact(-math.inf) == 0
    assert reference.compact(math.inf) == reference.total_messages
    extra = compacted.compact((now - horizon) - horizon / 8)
    retained = compacted.compact(math.inf)
    assert extra == 0 or extra + retained < COMPACT_THRESHOLD


# ----------------------------------------------------------------------
# lean links: directions on first lookup, logs on first message
# ----------------------------------------------------------------------
class TestLeanLinks:
    def test_one_message_builds_one_direction(self, connects, directions):
        net = Network([f"n{i}" for i in range(300)], spec=NetworkSpec())
        net.direction("n0", "n1").transfer(512, 0.0)
        assert len(connects) == 1
        assert [d.name for d in directions] == ["n0->n1"]
        assert directions[0].total_messages == 1

    def test_shape_before_the_directions_exist(self, directions):
        native = NetworkSpec(bandwidth_bps=1e6, latency_s=0.01)
        net = Network(("a", "b", "c"), spec=native)
        shaper = TrafficShaper(net.link_between("c", "a"))
        shaper.apply(0.5e6, 0.002)
        assert directions == []
        fwd = net.direction("a", "c")
        assert (fwd.bandwidth_bps, fwd.latency_s) == (0.5e6, 0.002)
        shaper.revert()
        assert (fwd.bandwidth_bps, fwd.latency_s) == (1e6, 0.01)
        bwd = net.direction("c", "a")
        assert (bwd.bandwidth_bps, bwd.latency_s) == (1e6, 0.01)
        assert len(directions) == 2

    def test_lossy_install_on_an_untouched_lazy_link(self, directions):
        net = Network([f"n{i}" for i in range(300)], spec=NetworkSpec())
        plan = FaultPlan(FaultSpec(loss_rate=1.0), seed=0)
        install_lossy_link(net, "n7", "n3", plan)
        for src, dst in (("n3", "n7"), ("n7", "n3")):
            channel = net.direction(src, dst)
            assert isinstance(channel, LossyDirection)
            assert channel.name == f"{src}->{dst}"
        assert math.isinf(net.direction("n3", "n7").transfer(100, 0.0))
        net.direction("n1", "n2").transfer(100, 0.0)
        with pytest.raises(FaultInjectionError):
            install_lossy_link(net, "n2", "n1", plan)

    @pytest.mark.parametrize(
        "obj",
        [
            Direction(NetworkSpec()),
            LossyDirection(NetworkSpec(), "a->b", FaultPlan(FaultSpec(), seed=0)),
            Link("a", "b", NetworkSpec()),
        ],
        ids=["Direction", "LossyDirection", "Link"],
    )
    def test_no_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")
