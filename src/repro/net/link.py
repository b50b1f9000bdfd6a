"""Point-to-point links: latency + bandwidth + FIFO serialization.

A :class:`Direction` is a one-way channel.  A transfer submitted at time
``now`` starts serializing when the channel is free (``max(now,
busy_until)``), occupies it for ``size / bandwidth`` seconds, and arrives
``latency`` seconds after serialization completes.  This reproduces the two
quantities AMPoM's formula for the prefetch horizon needs (paper eq. 3):
the round-trip latency ``2 * t0`` and the per-page transfer time ``td``,
including queuing delay when the channel is saturated by prefetch traffic.

Every transfer is logged (start, end, size) so the monitoring daemon can
read "RX/TX bytes" counters at arbitrary times, exactly like the paper's
``/sbin/ifconfig`` sampling.  The log is one ``array("d")``, allocated on
the first message: the cumulative byte count of everything compacted away,
then one (start, end, cumulative bytes) triple per retained transfer, 8
bytes per value instead of a list slot and a float or int object.

A :class:`Link` builds each of its two directions the first time it is
looked up, so a fleet whose gossip crosses a link one way pays for one
direction, and a direction pays for its log only once it carries traffic.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

from ..config import NetworkSpec
from ..errors import NetworkError

#: Transfer-log length (entries) at which old entries are considered for
#: compaction.
COMPACT_THRESHOLD = 8192

# Log length (values) of COMPACT_THRESHOLD entries plus the baseline.
_COMPACT_LEN = 1 + 3 * COMPACT_THRESHOLD


def check_shape(bandwidth_bps: float, latency_s: float) -> None:
    """Raise :class:`NetworkError` unless ``0 < bandwidth_bps < inf`` and
    ``0 <= latency_s < inf`` (NaN fails both)."""
    if not 0.0 < bandwidth_bps < math.inf:
        raise NetworkError(f"bandwidth must be positive and finite: {bandwidth_bps}")
    if not 0.0 <= latency_s < math.inf:
        raise NetworkError(f"latency must be non-negative and finite: {latency_s}")


def _ended_by(log: array, t: float) -> int:
    """How many entries of a transfer log finished serializing by ``t``."""
    # Bisect the end times through a strided view, released on return so
    # that the caller may resize the log.
    with memoryview(log) as view, view[2::3] as ends:
        return bisect_right(ends, t)


class Direction:
    """One direction of a duplex link."""

    # No slot may be named ``_log``: LossyDirection's ``_log`` method would
    # hide it, and assigning it would raise "attribute is read-only".
    __slots__ = (
        "name",
        "bandwidth_bps",
        "latency_s",
        "per_message_overhead_bytes",
        "per_page_overhead_bytes",
        "counter_horizon_s",
        "busy_until",
        "total_bytes",
        "total_messages",
        "trace_hook",
        "_transfers",
    )

    def __init__(self, spec: NetworkSpec, name: str = "") -> None:
        self.name = name
        self.bandwidth_bps = spec.bandwidth_bps
        self.latency_s = spec.latency_s
        self.per_message_overhead_bytes = spec.per_message_overhead_bytes
        self.per_page_overhead_bytes = spec.per_page_overhead_bytes
        self.counter_horizon_s = spec.counter_horizon_s
        self.busy_until = 0.0
        self.total_bytes = 0
        self.total_messages = 0
        #: Optional tracing hook ``(name, start, serialize_end, size,
        #: arrival) -> None`` fired once per message — the repro.obs span
        #: tracer attaches here to record wire occupancy.  Pure observer:
        #: it must not call back into the link.  None on untraced runs, so
        #: the hot path pays one attribute test per transfer.
        self.trace_hook = None
        # The transfer log, None until the first message: ``[base, s0, e0,
        # c0, s1, e1, c1, ...]``.  Entry ``j`` serialized over ``[sj, ej]``
        # and ``cj`` counts the bytes of every transfer up to it, so the
        # bytes sent before entry ``i`` are ``log[3 * i]`` (``base`` for
        # the first).  The log is compacted in batches: entries that
        # finished serializing more than ``counter_horizon_s`` before the
        # latest transfer fold into ``base`` so the log stays bounded.  The
        # cumulative byte counts are whole numbers far below 2**53, which
        # doubles hold exactly, and a float-valued overhead from a spec
        # file stays accepted.
        self._transfers: array | None = None

    # ------------------------------------------------------------------
    def reconfigure(self, bandwidth_bps: float, latency_s: float) -> None:
        """Change rate/delay for *future* transfers (traffic shaping).

        In-flight transfers keep their original timing, mirroring how a
        ``tc`` qdisc change affects only newly enqueued packets.
        """
        check_shape(bandwidth_bps, latency_s)
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s

    def transfer(self, payload_bytes: int, now: float) -> float:
        """Submit a message; return its arrival time at the far end."""
        if payload_bytes < 0:
            raise NetworkError(f"payload_bytes must be non-negative: {payload_bytes}")
        size = payload_bytes + self.per_message_overhead_bytes
        start = self.busy_until if self.busy_until > now else now
        end = start + size / self.bandwidth_bps
        self.busy_until = end
        self.total_bytes += size
        self.total_messages += 1
        log = self._transfers
        if log is None:
            log = self._transfers = array("d", (0.0,))
        prev = log[-1]
        log.append(start)
        log.append(end)
        log.append(prev + size)
        if len(log) >= _COMPACT_LEN:
            self._compact_batch(now)
        arrival = end + self.latency_s
        if self.trace_hook is not None:
            self.trace_hook(self.name, start, end, size, arrival)
        return arrival

    def transfer_page(self, page_size: int, now: float) -> float:
        """Submit one page payload (page + per-page protocol overhead)."""
        return self.transfer(page_size + self.per_page_overhead_bytes, now)

    def _compact_batch(self, now: float) -> None:
        """Compact to ``now - counter_horizon_s`` once the oldest entry
        ended an eighth of a horizon before that, so each compaction drops
        a batch of entries instead of shifting the log for one or two."""
        horizon = self.counter_horizon_s
        cutoff = now - horizon
        if self._transfers[2] <= cutoff - horizon / 8:
            self.compact(cutoff)

    # ------------------------------------------------------------------
    def queuing_delay(self, now: float) -> float:
        """How long a message submitted now would wait before serializing."""
        return max(0.0, self.busy_until - now)

    def bytes_sent_by(self, t: float) -> float:
        """Cumulative bytes that have finished (or partially finished)
        serializing by time ``t`` — the simulated interface TX counter.

        Exact for any ``t`` inside the retained log (the last
        ``counter_horizon_s`` of traffic, which covers every live monitor
        query); for older, compacted times it returns the compaction
        baseline, which keeps the counter monotone non-decreasing.
        """
        log = self._transfers
        if log is None:
            return 0.0
        at = 3 * _ended_by(log, t)
        done = log[at]
        if at + 1 < len(log) and log[at + 1] < t:
            start, end = log[at + 1], log[at + 2]
            size = log[at + 3] - done
            done += size * (t - start) / (end - start)
        return done

    def compact(self, before: float) -> int:
        """Drop log entries that finished serializing at or before
        ``before``; their bytes fold into the compaction baseline so
        :meth:`bytes_sent_by` stays exact for every later time.  Returns
        how many entries were dropped.
        """
        log = self._transfers
        if log is None:
            return 0
        k = _ended_by(log, before)
        if k:
            log[0] = log[3 * k]
            del log[1 : 3 * k + 1]
        return k


class Link:
    """A duplex link between two named endpoints.

    Each direction is built the first time it is looked up; a shape set
    by :meth:`reconfigure` before then applies to it when it is built.  A
    direction that has carried nothing is in the same state as a new one,
    so when it is built cannot change a result.
    """

    __slots__ = ("a", "b", "spec", "_ab", "_ba", "_shape")

    def __init__(self, a: str, b: str, spec: NetworkSpec) -> None:
        if a == b:
            raise NetworkError(f"cannot link node {a!r} to itself")
        self.a = a
        self.b = b
        self.spec = spec
        self._ab: Direction | None = None
        self._ba: Direction | None = None
        #: ``(bandwidth_bps, latency_s)`` of the last reconfigure, if any.
        self._shape: tuple[float, float] | None = None

    def _build(self, src: str, dst: str) -> Direction:
        direction = Direction(self.spec, name=f"{src}->{dst}")
        if self._shape is not None:
            direction.reconfigure(*self._shape)
        return direction

    def direction(self, src: str, dst: str) -> Direction:
        """The one-way channel from ``src`` to ``dst``."""
        if src == self.a and dst == self.b:
            if self._ab is None:
                self._ab = self._build(src, dst)
            return self._ab
        if src == self.b and dst == self.a:
            if self._ba is None:
                self._ba = self._build(src, dst)
            return self._ba
        raise NetworkError(f"link {self.a!r}<->{self.b!r} does not connect {src!r}->{dst!r}")

    def replace_direction(self, src: str, dst: str, direction: Direction) -> None:
        """Swap in a replacement channel (e.g. a fault-injecting wrapper).

        A shape set by :meth:`reconfigure` applies to the replacement too.
        """
        if src == self.a and dst == self.b:
            self._ab = direction
        elif src == self.b and dst == self.a:
            self._ba = direction
        else:
            raise NetworkError(f"link {self.a!r}<->{self.b!r} does not connect {src!r}->{dst!r}")
        if self._shape is not None:
            direction.reconfigure(*self._shape)

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def reconfigure(self, bandwidth_bps: float, latency_s: float) -> None:
        """Reshape both directions (symmetric shaping, as in the paper)."""
        check_shape(bandwidth_bps, latency_s)
        self._shape = (bandwidth_bps, latency_s)
        for direction in (self._ab, self._ba):
            if direction is not None:
                direction.reconfigure(bandwidth_bps, latency_s)
