"""Leap's majority-trend stride prefetcher (PAPERS.md: "Effectively
Prefetching Remote Memory with Leap").

Leap replaces per-fault locality analysis with a cheap trend test over
the recent access history: the stride that a *strict majority* of the
last ``w`` page-to-page deltas agree on is the trend, found with one
Boyer-Moore majority-vote pass.  The detector looks at progressively
larger suffixes of the history (``SUFFIX_START``, doubling up to the
full window), so a fresh trend is picked up from the newest accesses
before the whole window has turned over.

Two departures from a literal port, both required by this simulator's
determinism discipline:

* **Hysteresis on trend flips.**  An established trend is only replaced
  after the *same* new stride wins the majority vote on
  ``hysteresis`` consecutive faults.  A single outlier access (one
  interleaved stream sample, one wild pointer chase) can never flip the
  trend, so the prefetch stream does not thrash on noise.
* **Degenerate-stride fallback.**  When no majority exists (random
  access) or the majority stride is 0 (a re-fault on the same page),
  Leap degrades to a fixed sequential read-ahead of ``fallback_pages``
  — the same posture AMPoM takes when it has no dependent streams.

The prefetcher is a pure function of its fault history: no RNG, no wall
clock, so identical fault streams produce identical prefetch streams —
the property the golden matrix and the arena determinism gate rely on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..config import HardwareSpec
from ..errors import ConfigurationError
from .policy import LinkConditions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mem.residency import ResidencyTracker

#: Smallest suffix the majority vote considers; doubled until it covers
#: the full history window.
SUFFIX_START = 4


def majority_stride(deltas, start: int = SUFFIX_START) -> int | None:
    """The stride a strict majority of a recent suffix agrees on.

    Boyer-Moore majority vote over the last ``w`` deltas for ``w`` in
    ``start, 2*start, ...`` up to ``len(deltas)``; the first suffix with
    a verified strict majority (> w/2 occurrences) wins.  ``None`` means
    no suffix has a majority — the access stream has no dominant trend.
    """
    n = len(deltas)
    if n == 0:
        return None
    w = min(start, n)
    ordered = list(deltas)
    while True:
        suffix = ordered[n - w:]
        candidate, count = suffix[0], 0
        for d in suffix:
            if count == 0:
                candidate = d
            count += 1 if d == candidate else -1
        if 2 * suffix.count(candidate) > w:
            return candidate
        if w == n:
            return None
        w = min(w * 2, n)


class LeapPrefetcher:
    """Majority-trend stride detection with hysteresis and a read-ahead
    fallback; implements :class:`repro.core.policy.PrefetchPolicy`.

    Unlike AMPoM, Leap never consults the link (no RTT/bandwidth term in
    its window logic), so ``needs_conditions`` is False and the executor
    skips the oM_infoD snapshot entirely.
    """

    name = "leap"
    needs_conditions = False

    def __init__(
        self,
        hardware: HardwareSpec,
        address_limit: int,
        history: int = 32,
        prefetch_pages: int = 8,
        fallback_pages: int = 8,
        hysteresis: int = 2,
    ) -> None:
        if history < 2:
            raise ConfigurationError("leap needs a history of at least 2 accesses")
        if prefetch_pages < 1 or fallback_pages < 1:
            raise ConfigurationError("leap prefetch window sizes must be >= 1")
        if hysteresis < 1:
            raise ConfigurationError("leap hysteresis must be >= 1")
        self.address_limit = address_limit
        self.history = history
        self.prefetch_pages = prefetch_pages
        self.fallback_pages = fallback_pages
        self.hysteresis = hysteresis
        # One Boyer-Moore pass is O(history); AMPoM's reference pipeline
        # is O(lookback * dmax) = 80 window operations per fault, which
        # is what analysis_time_per_fault was calibrated against.
        self.analysis_time = hardware.analysis_time_per_fault * history / 80.0
        self.analyses = 0
        self._deltas: deque[int] = deque(maxlen=history - 1)
        self._last_vpn: int | None = None
        #: The established trend stride (None until the first majority).
        self.trend: int | None = None
        self._pending: int | None = None
        self._pending_votes = 0

    # ------------------------------------------------------------------
    def _update_trend(self, detected: int | None) -> None:
        if detected is None or detected == self.trend:
            # No new candidate this fault; a flip needs *consecutive*
            # confirmations, so any interruption restarts the count.
            self._pending = None
            self._pending_votes = 0
            return
        if self.trend is None:
            # First trend: adopt immediately, nothing to protect yet.
            self.trend = detected
            return
        if detected == self._pending:
            self._pending_votes += 1
        else:
            self._pending = detected
            self._pending_votes = 1
        if self._pending_votes >= self.hysteresis:
            self.trend = detected
            self._pending = None
            self._pending_votes = 0

    def on_fault(
        self,
        vpn: int,
        now: float,
        cpu_share: float,
        residency: "ResidencyTracker",
        conditions: LinkConditions | None,
    ) -> list[int]:
        self.analyses += 1
        if self._last_vpn is not None and vpn != self._last_vpn:
            self._deltas.append(vpn - self._last_vpn)
        self._last_vpn = vpn
        self._update_trend(majority_stride(self._deltas))

        stride = self.trend
        if stride is None or stride == 0:
            candidates = range(vpn + 1, vpn + 1 + self.fallback_pages)
        else:
            candidates = range(
                vpn + stride,
                vpn + stride * (self.prefetch_pages + 1),
                stride,
            )
        remote = residency.remote_flags
        limit = min(self.address_limit, len(remote))
        return [p for p in candidates if 0 <= p < limit and p != vpn and remote[p]]


__all__ = ["LeapPrefetcher", "SUFFIX_START", "majority_stride"]
