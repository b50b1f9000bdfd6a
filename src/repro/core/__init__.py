"""The AMPoM algorithm (the paper's primary contribution, sections 3-4).

* :mod:`repro.core.window` — the lookback window ``W`` with its access-time
  array ``T`` and CPU-utilization array ``C``.
* :mod:`repro.core.incremental` — :class:`IncrementalWindow`, the sliding
  window plus incrementally maintained stride/stream state used by the
  per-fault hot path (O(dmax) updates instead of O(l·dmax) rebuilds).
* :mod:`repro.core.stride` — stride-``d`` reference detection and the
  outstanding-stream / prefetch-pivot analysis (the naive full-window
  scans, retained as the differential-testing reference).
* :mod:`repro.core.locality` — the spatial locality score ``S`` (eq. 1).
* :mod:`repro.core.zone` — dependent-zone sizing ``N`` (eq. 2/3) and page
  selection with per-pivot quotas and saved-quota reuse.
* :mod:`repro.core.prefetcher` — :class:`AMPoMPrefetcher`, the Algorithm-1
  driver that ties the pieces together.
* :mod:`repro.core.policy` — the pluggable prefetch-policy interface and
  the baseline policies (NoPrefetch, fixed and Linux-style read-ahead).
"""

from .incremental import IncrementalWindow
from .locality import spatial_locality_score
from .policy import (
    FixedReadAheadPolicy,
    LinkConditions,
    LinuxReadAheadPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
)
from .prefetcher import AMPoMPrefetcher
from .stride import (
    OutstandingStream,
    analyze_window,
    find_outstanding_streams,
    positions_by_page,
    stride_counts,
)
from .vm_prefetcher import VmAmpomPrefetcher
from .window import LookbackWindow
from .zone import (
    dependent_zone_size,
    prefetch_horizon,
    readahead_fallback,
    select_dependent_pages,
    select_from_streams,
)

__all__ = [
    "AMPoMPrefetcher",
    "FixedReadAheadPolicy",
    "IncrementalWindow",
    "LinkConditions",
    "LinuxReadAheadPolicy",
    "LookbackWindow",
    "NoPrefetchPolicy",
    "OutstandingStream",
    "PrefetchPolicy",
    "VmAmpomPrefetcher",
    "analyze_window",
    "dependent_zone_size",
    "find_outstanding_streams",
    "positions_by_page",
    "prefetch_horizon",
    "readahead_fallback",
    "select_dependent_pages",
    "select_from_streams",
    "spatial_locality_score",
    "stride_counts",
]
