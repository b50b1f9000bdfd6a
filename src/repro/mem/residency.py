"""Residency state machine for the migrant's pages.

Each page of a migrated process is in exactly one state:

``MAPPED``
    Present in the migrant's address space; references hit the fast path.
``BUFFERED``
    Arrived from the origin but not yet copied in; the next fault copies
    every buffered page (Algorithm 1, first step).
``IN_FLIGHT``
    Requested (demand or prefetch) with a known arrival time.
``REMOTE``
    Still stored at the origin node.

The tracker is the hot data structure of the simulation: the executor's
inner loop reads one ``mapped_flags[vpn]`` byte per page reference, and the
prefetch policies filter their dependent zones with one ``remote_flags[p]``
byte per candidate page, so both flag arrays are exposed directly.  They
are dense (:mod:`repro.mem.flags`), always the same length, and grow in
place: :meth:`ResidencyTracker.reserve` makes room ahead of a trace that
names pages past the address space, and creating such a page grows them
too.  The buffered set and the in-flight map stay hash-based: they hold
tens of pages, and the buffered set's iteration order is the copy order
that feeds the LRU model.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..errors import MemoryStateError
from .flags import flagged, grow, page_flags
from .page_table import PageLocation

if TYPE_CHECKING:  # pragma: no cover
    from .page_table import MasterPageTable


class ResidencyTracker:
    """Tracks page states and pending arrivals for one migrant."""

    def __init__(self, remote_pages: Iterable[int], mapped_pages: Iterable[int] = ()) -> None:
        self._init(page_flags(remote_pages), page_flags(mapped_pages))

    @classmethod
    def from_mpt(cls, mpt: "MasterPageTable") -> "ResidencyTracker":
        """The state right after a freeze: every page the fresh MPT marks
        LOCAL is mapped, every HOME page is remote."""
        res = cls.__new__(cls)
        res._init(mpt.flags_at(PageLocation.HOME), mpt.flags_at(PageLocation.LOCAL))
        return res

    def _init(self, remote: bytearray, mapped: bytearray) -> None:
        size = max(len(remote), len(mapped))
        grow(remote, size)
        grow(mapped, size)
        overlap = flagged(
            np.frombuffer(remote, dtype=np.uint8) & np.frombuffer(mapped, dtype=np.uint8)
        )
        if overlap:
            raise MemoryStateError(f"pages both mapped and remote: {overlap[:5]}")
        #: One byte per page, 1 while mapped.  Exposed for the executor's
        #: fast path; treat as read-only outside this class.
        self.mapped_flags = mapped
        #: One byte per page, 1 while stored at the origin.  Exposed for
        #: the prefetch policies' dependent-zone filters; treat as
        #: read-only outside this class.
        self.remote_flags = remote
        self._n_mapped = mapped.count(1)
        self._n_remote = remote.count(1)
        #: Arrived-but-not-yet-copied pages; exposed (read-only) for the
        #: executor's copy-step gate.
        self.buffered_set: set[int] = set()
        #: vpn -> expected arrival time for requested pages; exposed
        #: (read-only) for the executor's fault classification.
        self.in_flight_map: dict[int, float] = {}
        self._arrival_heap: list[tuple[float, int]] = []

    def reserve(self, n_pages: int) -> None:
        """Make every vpn below ``n_pages`` indexable in both flag arrays
        (the new pages are in no state)."""
        grow(self.mapped_flags, n_pages)
        grow(self.remote_flags, n_pages)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    # ``buffered`` and ``in_flight`` are live views and must be treated as
    # read-only; returning them directly keeps the per-fault membership
    # probes on the executor's path O(1).  ``remote`` is a snapshot.
    @property
    def remote(self) -> frozenset[int]:
        return frozenset(self.remote_pages())

    @property
    def buffered(self):
        return self.buffered_set

    @property
    def in_flight(self):
        return self.in_flight_map.keys()

    def mapped_pages(self) -> list[int]:
        """The mapped pages, ascending."""
        return flagged(self.mapped_flags)

    def remote_pages(self) -> list[int]:
        """The remote pages, ascending."""
        return flagged(self.remote_flags)

    def is_mapped(self, vpn: int) -> bool:
        return 0 <= vpn < len(self.mapped_flags) and self.mapped_flags[vpn] == 1

    def is_local_or_pending(self, vpn: int) -> bool:
        """True if the page needs no new request (Algorithm 1's "stored
        locally" test also skips pages already on the wire)."""
        return self.is_mapped(vpn) or vpn in self.buffered_set or vpn in self.in_flight_map

    def is_remote(self, vpn: int) -> bool:
        """True if the page is stored at the origin and may be requested."""
        return 0 <= vpn < len(self.remote_flags) and self.remote_flags[vpn] == 1

    @property
    def n_mapped(self) -> int:
        return self._n_mapped

    @property
    def n_remote(self) -> int:
        return self._n_remote

    @property
    def n_in_flight(self) -> int:
        return len(self.in_flight_map)

    @property
    def n_buffered(self) -> int:
        return len(self.buffered_set)

    def arrival_time(self, vpn: int) -> float:
        try:
            return self.in_flight_map[vpn]
        except KeyError:
            raise MemoryStateError(f"page {vpn} is not in flight")

    def state_sets(self) -> dict[str, set[int]]:
        """Copies of the four state sets, keyed by state name.

        Intentionally a copy so a caller cannot perturb the tracker.
        """
        return {
            "mapped": set(self.mapped_pages()),
            "buffered": set(self.buffered_set),
            "in_flight": set(self.in_flight_map),
            "remote": set(self.remote_pages()),
        }

    @property
    def total_pages(self) -> int:
        """Pages currently tracked, across all four states."""
        return self._n_mapped + len(self.buffered_set) + len(self.in_flight_map) + self._n_remote

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def start_fetch(self, vpn: int, arrival: float) -> None:
        """REMOTE -> IN_FLIGHT with a known arrival time.

        Under fault injection the arrival may be ``inf`` — the request or
        reply was lost and the page will never arrive on its own; a
        retransmission later improves the arrival via
        :meth:`update_arrival` or the page is returned to REMOTE via
        :meth:`write_off_lost`.
        """
        remote = self.remote_flags
        if not (0 <= vpn < len(remote) and remote[vpn]):
            raise MemoryStateError(f"page {vpn} is not remote; cannot fetch it")
        remote[vpn] = 0
        self._n_remote -= 1
        self.in_flight_map[vpn] = arrival
        heapq.heappush(self._arrival_heap, (arrival, vpn))

    def update_arrival(self, vpn: int, arrival: float) -> None:
        """Improve an in-flight page's arrival time (a retransmitted reply
        beat the original).  A later arrival than the recorded one is
        ignored — the earlier copy wins."""
        try:
            current = self.in_flight_map[vpn]
        except KeyError:
            raise MemoryStateError(f"page {vpn} is not in flight")
        if arrival < current:
            self.in_flight_map[vpn] = arrival
            heapq.heappush(self._arrival_heap, (arrival, vpn))

    def write_off_lost(self, keep: Iterable[int] = ()) -> list[int]:
        """IN_FLIGHT -> REMOTE for every page that will never arrive
        (infinite arrival time), except those in ``keep``.  Used when the
        migrant concludes the deputy crashed: outstanding prefetches are
        written off so demand paging can re-request them later.  Returns
        the written-off pages in ascending order."""
        keep = set(keep)
        lost = sorted(
            vpn
            for vpn, arrival in self.in_flight_map.items()
            if arrival == float("inf") and vpn not in keep
        )
        remote = self.remote_flags
        for vpn in lost:
            del self.in_flight_map[vpn]
            remote[vpn] = 1
        self._n_remote += len(lost)
        return lost

    def absorb_arrivals(self, now: float) -> int:
        """IN_FLIGHT -> BUFFERED for every page whose arrival time has
        passed.  Returns how many pages arrived.

        Heap entries superseded by :meth:`update_arrival` or
        :meth:`write_off_lost` are skipped lazily.
        """
        n = 0
        heap = self._arrival_heap
        while heap and heap[0][0] <= now:
            arrival, vpn = heapq.heappop(heap)
            if self.in_flight_map.get(vpn) != arrival:
                continue  # stale entry: rescheduled or written off
            del self.in_flight_map[vpn]
            self.buffered_set.add(vpn)
            n += 1
        return n

    def map_buffered(self) -> list[int]:
        """BUFFERED -> MAPPED for every buffered page (the copy step of
        Algorithm 1).  Returns the pages that were copied."""
        copied = list(self.buffered_set)
        mapped = self.mapped_flags
        for vpn in copied:
            mapped[vpn] = 1
        self._n_mapped += len(copied)
        self.buffered_set.clear()
        return copied

    def map_created(self, vpn: int) -> None:
        """A page freshly created by the migrant (never remote)."""
        if vpn < 0:
            raise MemoryStateError(f"page {vpn} is not a valid page number")
        if (
            self.is_mapped(vpn)
            or vpn in self.buffered_set
            or vpn in self.in_flight_map
            or self.is_remote(vpn)
        ):
            raise MemoryStateError(f"page {vpn} already exists; cannot create it")
        self.reserve(vpn + 1)
        self.mapped_flags[vpn] = 1
        self._n_mapped += 1

    def unmap(self, vpn: int) -> None:
        """Drop a mapped page (used by the LRU capacity model)."""
        if not self.is_mapped(vpn):
            raise MemoryStateError(f"page {vpn} is not mapped")
        self.mapped_flags[vpn] = 0
        self.remote_flags[vpn] = 1
        self._n_mapped -= 1
        self._n_remote += 1
