"""Brute-force reference implementations of the AMPoM equations.

These are deliberately O(l²)-per-window transcriptions of the paper text —
no position index, no incremental state — so they share no code (and
therefore no bugs) with :class:`repro.core.incremental.IncrementalWindow`
and the zone helpers of :mod:`repro.core.zone`.  They are the one
reference the window analysis is checked against: tier-1 compares the
engine with them after every recorded fault, and
:class:`DifferentialOracle` cross-checks every dependent-zone analysis
when ``CheckSpec.oracle`` is enabled, raising
:class:`repro.errors.InvariantViolation` on any disagreement.

Reference semantics (paper sections 3.1-3.4):

* eq. 1: ``S = sum_{d=1}^{dmax} stride_d / (l * d)``, clamped to [0, 1],
  where ``stride_d`` counts the distinct pages participating in stride-d
  pairs, a pair's stride being the minimum absolute window distance
  between a reference ``r_p`` and any reference to page ``r_p + 1``;
* section 3.3: the paging rate ``r = l / (T_l - T_1)`` and the CPU ratio
  ``c'/c = C_l / mean(C)`` over the window's time and CPU arrays;
* eq. 2/3: ``N = (c'/c) * S * r * t`` with ``t = 2*t0 + td + 1/r``,
  clamped to ``[min_pages, max_pages]``;
* section 3.4: each outstanding stream's pivot receives ``N/m``
  consecutive pages, walking forward past already-selected pages without
  spending quota ("saved quota"); with no outstanding stream the ``N``
  pages after the last reference are taken (Linux read-ahead imitation).
"""

from __future__ import annotations

import sys
from typing import Sequence

from ..errors import InvariantViolation

_EPS = 1e-9


def ref_stride_counts(pages: Sequence[int], dmax: int) -> dict[int, int]:
    """``stride_d`` for ``d = 1..dmax`` by exhaustive pair scan."""
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    n = len(pages)
    participants: dict[int, set[int]] = {d: set() for d in range(1, dmax + 1)}
    for p in range(n):
        distances = [abs(q - p) for q in range(n) if pages[q] == pages[p] + 1]
        if not distances:
            continue
        d = min(distances)
        if 1 <= d <= dmax:
            participants[d].add(pages[p])
            participants[d].add(pages[p] + 1)
    return {d: len(s) for d, s in participants.items()}


def ref_spatial_locality_score(pages: Sequence[int], dmax: int) -> float:
    """Eq. 1, computed from :func:`ref_stride_counts`."""
    length = len(pages)
    if length == 0:
        return 0.0
    counts = ref_stride_counts(pages, dmax)
    score = sum(count / (length * d) for d, count in counts.items())
    return min(max(score, 0.0), 1.0)


def ref_outstanding_streams(pages: Sequence[int], dmax: int) -> list[tuple[int, int, int]]:
    """Outstanding streams as ``(stride, end_index, pivot)`` triples.

    A forward pair ``(p, q)`` with ``pages[q] == pages[p] + 1`` at the
    minimum forward distance ``d = q - p <= dmax`` is outstanding when the
    endpoint lies within ``d`` of the window end (``q >= l - d``).
    Streams sharing a pivot collapse to the one ending latest; output is
    ordered by (end_index, stride).
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    n = len(pages)
    by_pivot: dict[int, tuple[int, int, int]] = {}
    for p in range(n):
        forward = [q for q in range(p + 1, n) if pages[q] == pages[p] + 1]
        if not forward:
            continue
        q = min(forward)
        d = q - p
        if d > dmax or q < n - d:
            continue
        pivot = pages[q] + 1
        kept = by_pivot.get(pivot)
        if kept is None or q > kept[1]:
            by_pivot[pivot] = (d, q, pivot)
    return sorted(by_pivot.values(), key=lambda s: (s[1], s[0]))


def ref_paging_rate(times: Sequence[float], fallback_interval: float) -> float:
    """Section 3.3: ``r = l / (T_l - T_1)`` over the window's times.

    Before the window spans a positive time it is one fault per
    ``fallback_interval``; a span so short that ``l / span`` overflows
    saturates at the largest finite float.
    """
    if len(times) >= 2:
        span = times[-1] - times[0]
        if span > 0.0:
            return min(len(times) / span, sys.float_info.max)
    return 1.0 / fallback_interval


def ref_cpu_ratio(cpus: Sequence[float]) -> float:
    """Eq. 2's ``c'/c``: the newest CPU share over the window's mean, or 1
    when the mean is at most ``1e-9`` (or the window is empty)."""
    if not cpus:
        return 1.0
    mean = sum(cpus) / len(cpus)
    return cpus[-1] / mean if mean > _EPS else 1.0


def ref_zone_size(
    score: float,
    paging_rate: float,
    horizon: float,
    cpu_ratio: float,
    max_pages: int,
    min_pages: int,
) -> int:
    """Eq. 2/3: ``N = (c'/c) * S * r * t`` clamped to the configured band.

    Out-of-band values never reach ``int()``: ``+inf`` clamps to
    ``max_pages``, ``-inf`` and ``NaN`` to ``min_pages``.
    """
    n = cpu_ratio * score * paging_rate * horizon
    if not n >= min_pages:
        return min_pages
    if n >= max_pages:
        return max_pages
    return int(n)


def ref_select_dependent_pages(
    window_pages: Sequence[int],
    n: int,
    dmax: int,
    address_limit: int,
) -> list[int]:
    """Section 3.4 page selection, replayed naively."""
    if n <= 0 or not window_pages:
        return []
    streams = ref_outstanding_streams(window_pages, dmax)
    if not streams:
        last = window_pages[-1]
        return list(range(last + 1, min(last + 1 + n, address_limit)))
    m = len(streams)
    selected: list[int] = []
    for i, (_, _, pivot) in enumerate(streams):
        quota = n // m + (1 if i < n % m else 0)
        vpn = pivot
        while quota > 0 and vpn < address_limit:
            if vpn not in selected:
                selected.append(vpn)
                quota -= 1
            vpn += 1
    return selected


class DifferentialOracle:
    """Cross-checks one analysis step of :mod:`repro.core` per call."""

    def __init__(self) -> None:
        #: Analyses verified so far (diagnostics / test assertions).
        self.verified = 0

    # ------------------------------------------------------------------
    def verify_analysis(
        self,
        *,
        pages: Sequence[int],
        dmax: int,
        score: float,
        paging_rate: float,
        horizon: float,
        rtt_s: float,
        page_transfer_time: float,
        times: Sequence[float],
        cpus: Sequence[float],
        fallback_interval: float,
        cpu_ratio: float,
        zone_size: int,
        max_pages: int,
        min_pages: int,
        streams: Sequence[object],
        dependent: Sequence[int],
        address_limit: int,
    ) -> None:
        """Verify one dependent-zone analysis against the references.

        ``times`` and ``cpus`` are the window's ``T`` and ``C`` arrays and
        ``fallback_interval`` its paging interval before ``T`` spans a
        positive time.  ``streams`` are the production
        :class:`repro.core.incremental.OutstandingStream` objects and
        ``dependent`` the production page selection (before residency
        filtering, which is the executor's concern, not the equations').
        ``r`` and ``c'/c`` must match exactly: the references perform the
        same float operations in the same order.
        """
        ref_score = ref_spatial_locality_score(pages, dmax)
        if abs(ref_score - score) > _EPS:
            self._mismatch(
                "eq1-score",
                f"S={score!r} but the reference computes {ref_score!r} "
                f"for window {list(pages)} (dmax={dmax})",
            )

        ref_rate = ref_paging_rate(times, fallback_interval)
        if ref_rate != paging_rate:
            self._mismatch(
                "eq3-paging-rate",
                f"r={paging_rate!r} but l / (T_l - T_1) = {ref_rate!r} "
                f"for times {list(times)} (fallback interval {fallback_interval!r})",
            )

        paging_interval = 1.0 / paging_rate
        ref_horizon = rtt_s + page_transfer_time + paging_interval
        if abs(ref_horizon - horizon) > _EPS * max(1.0, abs(ref_horizon)):
            self._mismatch(
                "eq3-horizon",
                f"t={horizon!r} but 2*t0 + td + 1/r = {ref_horizon!r} "
                f"(rtt={rtt_s!r}, td={page_transfer_time!r}, 1/r={paging_interval!r})",
            )

        ref_ratio = ref_cpu_ratio(cpus)
        if ref_ratio != cpu_ratio:
            self._mismatch(
                "eq2-cpu-ratio",
                f"c'/c={cpu_ratio!r} but C_l / mean(C) = {ref_ratio!r} "
                f"for cpus {list(cpus)}",
            )

        ref_n = ref_zone_size(score, paging_rate, horizon, cpu_ratio, max_pages, min_pages)
        if ref_n != zone_size:
            self._mismatch(
                "eq2-zone-size",
                f"N={zone_size} but (c'/c)*S*r*t clamped to "
                f"[{min_pages}, {max_pages}] gives {ref_n} "
                f"(c'/c={cpu_ratio!r}, S={score!r}, r={paging_rate!r}, t={horizon!r})",
            )

        ref_streams = ref_outstanding_streams(pages, dmax)
        got_streams = [(s.stride, s.end_index, s.pivot) for s in streams]
        if got_streams != ref_streams:
            self._mismatch(
                "outstanding-streams",
                f"production found {got_streams} but the reference finds "
                f"{ref_streams} for window {list(pages)}",
            )

        ref_pages = ref_select_dependent_pages(pages, zone_size, dmax, address_limit)
        if list(dependent) != ref_pages:
            self._mismatch(
                "dependent-zone-selection",
                f"production selected {list(dependent)} but the reference "
                f"selects {ref_pages} (N={zone_size}, window {list(pages)})",
            )
        self.verified += 1

    # ------------------------------------------------------------------
    def _mismatch(self, which: str, detail: str) -> None:
        raise InvariantViolation(f"oracle:{which}", detail)
