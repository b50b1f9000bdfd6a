"""The AMPoM algorithm (the paper's primary contribution, sections 3-4).

* :mod:`repro.core.incremental` — :class:`IncrementalWindow`, the lookback
  window ``W``/``T``/``C`` plus incrementally maintained stride and
  outstanding-stream state: stride detection, the spatial locality score
  ``S`` (eq. 1) and the prefetch pivots, in O(dmax) updates per fault.
* :mod:`repro.core.zone` — eq. 2/3's clamp on the dependent-zone size
  ``N`` and page selection with per-pivot quotas and saved-quota reuse.
* :mod:`repro.core.prefetcher` — :class:`AMPoMPrefetcher`, the Algorithm-1
  driver that ties the pieces together.
* :mod:`repro.core.policy` — the pluggable prefetch-policy interface and
  the baseline policies (NoPrefetch, fixed and Linux-style read-ahead).

The brute-force reference that the window analysis is checked against
lives apart from this package, in :mod:`repro.check.oracle`.
"""

from .incremental import IncrementalWindow, OutstandingStream
from .policy import (
    FixedReadAheadPolicy,
    LinkConditions,
    LinuxReadAheadPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
)
from .prefetcher import AMPoMPrefetcher
from .vm_prefetcher import VmAmpomPrefetcher
from .zone import readahead_fallback, select_from_streams

__all__ = [
    "AMPoMPrefetcher",
    "FixedReadAheadPolicy",
    "IncrementalWindow",
    "LinkConditions",
    "LinuxReadAheadPolicy",
    "NoPrefetchPolicy",
    "OutstandingStream",
    "PrefetchPolicy",
    "VmAmpomPrefetcher",
    "readahead_fallback",
    "select_from_streams",
]
