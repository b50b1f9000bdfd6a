"""Dependent-zone sizing and page selection (paper sections 3.3-3.4).

*How many pages* (eq. 2/3):

    N = (c' / c) * S * r * t,        t = 2*t0 + td + 1/r

where ``S`` is the spatial locality score, ``r`` the paging rate over the
lookback window, ``t0`` the one-way network latency, ``td`` the transfer
time of one page at the currently available bandwidth, and ``c``/``c'``
the measured and expected CPU shares of the process.

*Which pages* (section 3.4): the prefetch pivots of the outstanding
stride streams each receive a quota of ``N / m`` consecutive pages
(``m`` = number of outstanding streams); a page already selected by an
earlier stream does not consume quota ("saved quota"), the stream simply
extends further.  With no outstanding stream the ``N`` pages after the
last referenced page are taken, imitating Linux's read-ahead.
"""

from __future__ import annotations

from typing import Sequence

from .incremental import OutstandingStream


def clamp_zone_size(zone: float, min_pages: int, max_pages: int) -> int:
    """Truncate eq. 3's ``N`` to a page count in ``[min_pages, max_pages]``.

    The comparisons come before ``int()``, so every float maps to a count:
    ``+inf`` gives ``max_pages``; ``-inf`` and ``NaN`` (``0 * inf``) give
    ``min_pages``.  On finite ``zone`` this equals
    ``max(min_pages, min(int(zone), max_pages))``.
    """
    if zone >= max_pages:
        return max_pages
    if zone >= min_pages:
        return int(zone)
    return min_pages


def readahead_fallback(last_page: int, n: int, address_limit: int) -> list[int]:
    """The no-outstanding-stream fallback: the ``n`` pages after the last
    referenced page, imitating Linux's read-ahead (section 3.4)."""
    return list(range(last_page + 1, min(last_page + 1 + n, address_limit)))


def select_from_streams(
    streams: Sequence[OutstandingStream], n: int, address_limit: int
) -> list[int]:
    """Split the quota of ``n`` pages over the outstanding streams' pivots.

    Each pivot walks forward collecting its ``N/m`` share; pages another
    stream already claimed cost nothing ("saved quota").  Walks truncate
    at ``address_limit`` without reassigning the unspent quota.
    """
    m = len(streams)
    if m == 1:
        # Single stream: the whole quota walks forward from its pivot with
        # nothing to dedup against — a plain range.
        pivot = streams[0].pivot
        return list(range(pivot, min(pivot + n, address_limit)))
    selected: list[int] = []
    chosen: set[int] = set()
    base, remainder = divmod(n, m)
    for i, stream in enumerate(streams):
        quota = base + (1 if i < remainder else 0)
        vpn = stream.pivot
        while quota > 0 and vpn < address_limit:
            if vpn not in chosen:
                chosen.add(vpn)
                selected.append(vpn)
                quota -= 1
            # Saved quota: a page another stream already claimed costs
            # nothing; keep walking forward.
            vpn += 1
    return selected

