"""Stride detection over the lookback window (paper section 3.1 and 3.4).

Definitions reproduced here:

* The *stride* of a page reference ``r_p`` is the minimum absolute distance
  ``d`` in ``W`` between the references to page ``r_p`` and page
  ``r_p + 1``.  A stride-``d`` reference pattern is
  ``S_d = r_p, r_{p+1}, ..., r_{p+d}`` with ``r_{p+d} = r_p + 1``.
* ``stride_d`` is the number of distinct pages in ``W`` participating in
  stride-``d`` references.  For ``{1,99,2,45,3,78,4}`` the stride-2
  references are ``{1,99,2}``, ``{2,45,3}``, ``{3,78,4}`` and
  ``stride_2 = 4`` (pages 1, 2, 3, 4).
* An *outstanding* stride-``d`` stream is one whose endpoint lies within
  ``d`` of the window's end (1-based: ``p + d > l - d``); its *prefetch
  pivot* is the page after the stream's endpoint, ``r_{p+d} + 1``.

The score (eq. 1) uses minimum **absolute** distance, so a descending
sequential sweep still registers spatial locality; outstanding streams are
**forward** pairs only, because a pivot extrapolates forward progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, slots=True)
class OutstandingStream:
    """A stride-``d`` stream still active at the window's end."""

    stride: int
    #: Window position (0-based) of the stream's endpoint ``r_{p+d}``.
    end_index: int
    #: The page to start prefetching from: ``r_{p+d} + 1``.
    pivot: int


def positions_by_page(pages: Sequence[int]) -> dict[int, list[int]]:
    """The page-position index: page value -> ascending window positions.

    Both window scans below consume this index; callers analysing the same
    window more than once should build it once and pass it through their
    ``positions`` parameter instead of letting each function rebuild it
    (or use :class:`repro.core.incremental.IncrementalWindow`, which
    maintains the index across faults).
    """
    index: dict[int, list[int]] = {}
    for i, vpn in enumerate(pages):
        index.setdefault(vpn, []).append(i)
    return index


def stride_counts(
    pages: Sequence[int],
    dmax: int,
    positions: dict[int, list[int]] | None = None,
) -> dict[int, int]:
    """``stride_d`` for ``d = 1 .. dmax``: distinct participating pages.

    For each reference ``r_p``, the nearest (minimum absolute distance)
    reference to page ``r_p + 1`` defines the stride of the pair; both
    pages participate in ``stride_d``.  ``positions`` may supply a
    prebuilt :func:`positions_by_page` index for ``pages``.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    index = positions_by_page(pages) if positions is None else positions
    participants: dict[int, set[int]] = {d: set() for d in range(1, dmax + 1)}
    for p, vpn in enumerate(pages):
        successors = index.get(vpn + 1)
        if not successors:
            continue
        d = min(abs(q - p) for q in successors)
        if 1 <= d <= dmax:
            participants[d].add(vpn)
            participants[d].add(vpn + 1)
    return {d: len(s) for d, s in participants.items()}


def find_outstanding_streams(
    pages: Sequence[int],
    dmax: int,
    positions: dict[int, list[int]] | None = None,
) -> list[OutstandingStream]:
    """Outstanding stride-``d`` streams and their prefetch pivots.

    A forward pair ``(p, p + d)`` with ``pages[p + d] == pages[p] + 1`` is
    outstanding when its endpoint is within ``d`` positions of the window
    end (0-based: ``p + d >= len(pages) - d``).  ``d`` must be the minimum
    forward distance from ``p`` to a reference of ``pages[p] + 1``.
    Streams sharing a pivot are reported once (the one ending latest).
    ``positions`` may supply a prebuilt :func:`positions_by_page` index.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    n = len(pages)
    index = positions_by_page(pages) if positions is None else positions
    by_pivot: dict[int, OutstandingStream] = {}
    for p, vpn in enumerate(pages):
        forward = [q for q in index.get(vpn + 1, ()) if q > p]
        if not forward:
            continue
        q = min(forward)
        d = q - p
        if d > dmax or q < n - d:
            continue
        pivot = pages[q] + 1
        existing = by_pivot.get(pivot)
        if existing is None or q > existing.end_index:
            by_pivot[pivot] = OutstandingStream(stride=d, end_index=q, pivot=pivot)
    # Deterministic order: by endpoint position, then stride.
    return sorted(by_pivot.values(), key=lambda s: (s.end_index, s.stride))


def analyze_window(
    pages: Sequence[int], dmax: int
) -> tuple[dict[int, int], list[OutstandingStream]]:
    """One-pass window analysis: ``(stride_counts, outstanding_streams)``.

    Builds the page-position index exactly once and feeds it to both
    scans — the full-window equivalent of what the per-fault path gets
    from :class:`repro.core.incremental.IncrementalWindow`.
    """
    index = positions_by_page(pages)
    return (
        stride_counts(pages, dmax, positions=index),
        find_outstanding_streams(pages, dmax, positions=index),
    )
