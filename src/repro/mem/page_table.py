"""Master and home page tables of the remote-paging support.

Paper section 2.2: when a process migrates, its Linux page table is
transferred to the destination and becomes the **master page table (MPT)**;
the original table becomes the **home page table (HPT)** and the original
process instance becomes a deputy.  The update rules are:

* a page transferred to the migrant (during migration or by a later fault)
  is *deleted* from the origin and removed from the HPT;
* a page created by the migrant updates only the MPT;
* unmapping a page updates the HPT as well only if the page is still stored
  at the origin.

The MPT is what AMPoM ships during the freeze; its size is 6 bytes per page
(section 5.2), which is why AMPoM's freeze time still grows linearly with
the address-space size in figure 5.

Both tables are dense (:mod:`repro.mem.flags`): the MPT holds one location
code per page and the HPT one "still stored at the origin" flag per page,
each with a running count.  Tables grow in place when a page past their
end is created or stored.
"""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np

from ..errors import MemoryStateError
from ..units import MPT_ENTRY_BYTES
from .flags import flagged, grow, page_flags


class PageLocation(enum.Enum):
    """Where the authoritative copy of a page currently lives."""

    LOCAL = "local"  # at the migrant (destination node)
    HOME = "home"  # still stored at the origin node


# MPT location codes; 0 means "no entry".
_LOCAL = 1
_HOME = 2
_CODE = {PageLocation.LOCAL: _LOCAL, PageLocation.HOME: _HOME}
_LOCATION = (None, PageLocation.LOCAL, PageLocation.HOME)
#: ``bytearray.translate`` tables turning MPT codes into 0/1 flags.
_SELECT = {
    location: bytes(1 if i == code else 0 for i in range(256))
    for location, code in _CODE.items()
}


class HomePageTable:
    """Pages still held by the origin node on behalf of a migrant."""

    def __init__(self, pages: Iterable[int] = ()) -> None:
        self._init(page_flags(pages))

    @classmethod
    def _from_flags(cls, flags: bytearray) -> "HomePageTable":
        hpt = cls.__new__(cls)
        hpt._init(flags)
        return hpt

    def _init(self, flags: bytearray) -> None:
        #: One byte per page, 1 while the origin stores it.  Exposed for
        #: the deputy's per-page test; treat as read-only outside this
        #: class.
        self.stored = flags
        self._n = flags.count(1)
        #: Pages stored at migration time (audit baseline for repro.check:
        #: ``len(self) == initial_pages - released_total + stored_total
        #: - forfeited_total``).
        self.initial_pages = self._n
        #: Cumulative releases (pages shipped to the migrant).
        self.released_total = 0
        #: Cumulative stores (pages written back by eviction).
        self.stored_total = 0
        #: Cumulative forfeits (pages lost to a whole-node crash).
        self.forfeited_total = 0

    def __contains__(self, vpn: int) -> bool:
        stored = self.stored
        return 0 <= vpn < len(stored) and stored[vpn] == 1

    def __len__(self) -> int:
        return self._n

    @property
    def pages(self) -> frozenset[int]:
        return frozenset(flagged(self.stored))

    def _remove(self, vpn: int) -> None:
        stored = self.stored
        if not (0 <= vpn < len(stored) and stored[vpn]):
            raise MemoryStateError(f"page {vpn} is not stored at the origin")
        stored[vpn] = 0
        self._n -= 1

    def release(self, vpn: int) -> None:
        """Delete the origin copy after the page was shipped to the migrant."""
        self._remove(vpn)
        self.released_total += 1

    def store(self, vpn: int) -> None:
        """Store a page written back by the migrant (memory pressure at the
        destination evicts it to its home node)."""
        if vpn in self:
            raise MemoryStateError(f"page {vpn} is already stored at the origin")
        if vpn < 0:
            raise MemoryStateError(f"page {vpn} is not a valid page number")
        grow(self.stored, vpn + 1)
        self.stored[vpn] = 1
        self._n += 1
        self.stored_total += 1

    def drop(self, vpn: int) -> None:
        """Remove an unmapped page that was still stored at the origin."""
        self.release(vpn)

    def forfeit(self, vpn: int) -> None:
        """Write off a stored page lost to a whole-node crash.

        Unlike :meth:`release`, the page was never shipped anywhere — the
        node holding this table died and its copy is gone.  Counted
        separately so the ledger audit still balances.
        """
        self._remove(vpn)
        self.forfeited_total += 1

    def forfeit_all(self) -> list[int]:
        """Forfeit every stored page (whole-node crash teardown).

        Returns the forfeited page numbers, sorted, so the caller can
        re-home them (chain repair) or record the loss.
        """
        lost = flagged(self.stored)
        self.stored[:] = bytes(len(self.stored))
        self._n = 0
        self.forfeited_total += len(lost)
        return lost


class MasterPageTable:
    """The migrant's page table: every live page and its location."""

    def __init__(self, entry_bytes: int = MPT_ENTRY_BYTES) -> None:
        self.entry_bytes = entry_bytes
        self._codes = bytearray()
        self._n = 0

    def __contains__(self, vpn: int) -> bool:
        codes = self._codes
        return 0 <= vpn < len(codes) and codes[vpn] != 0

    def __len__(self) -> int:
        return self._n

    @property
    def size_bytes(self) -> int:
        """Wire size of the MPT when shipped during the freeze."""
        return self._n * self.entry_bytes

    def location(self, vpn: int) -> PageLocation:
        codes = self._codes
        if 0 <= vpn < len(codes) and codes[vpn]:
            return _LOCATION[codes[vpn]]
        raise MemoryStateError(f"page {vpn} has no MPT entry")

    def pages_at(self, location: PageLocation) -> frozenset[int]:
        return frozenset(flagged(self._codes, _CODE[location]))

    def flags_at(self, location: PageLocation) -> bytearray:
        """One byte per page, 1 where the page's entry is ``location``."""
        return self._codes.translate(_SELECT[location])

    # ------------------------------------------------------------------
    # update rules of section 2.2
    # ------------------------------------------------------------------
    def mark_local(self, vpn: int) -> None:
        """The migrant mapped a page that arrived from the origin.

        In the simulation the transfer is split between two actors: the
        deputy deletes the origin copy (``HomePageTable.release``) when it
        ships the page, and the migrant flips the MPT entry when the page
        is copied into its address space.  :func:`transfer_page` performs
        both halves atomically for non-simulated use.
        """
        codes = self._codes
        if 0 <= vpn < len(codes) and codes[vpn] == _HOME:
            codes[vpn] = _LOCAL
        else:
            self.location(vpn)  # raises if the page has no entry
            raise MemoryStateError(f"page {vpn} is already local")

    def mark_home(self, vpn: int) -> None:
        """The page was written back to the origin (eviction)."""
        if self.location(vpn) is PageLocation.HOME:
            raise MemoryStateError(f"page {vpn} is already at home")
        self._codes[vpn] = _HOME

    def record_creation(self, vpn: int) -> None:
        """A page created by the migrant: only the MPT is updated."""
        if vpn in self:
            raise MemoryStateError(f"page {vpn} already exists")
        if vpn < 0:
            raise MemoryStateError(f"page {vpn} is not a valid page number")
        grow(self._codes, vpn + 1)
        self._codes[vpn] = _LOCAL
        self._n += 1

    def record_unmap(self, vpn: int, hpt: HomePageTable) -> None:
        """Unmap a page; the HPT is touched only if the origin held it."""
        location = self.location(vpn)
        if location is PageLocation.HOME:
            hpt.drop(vpn)
        self._codes[vpn] = 0
        self._n -= 1

    # ------------------------------------------------------------------
    @classmethod
    def from_migration(
        cls,
        pages: Iterable[int],
        local_pages: Iterable[int],
        entry_bytes: int = MPT_ENTRY_BYTES,
    ) -> tuple["MasterPageTable", HomePageTable]:
        """Build the (MPT, HPT) pair at migration time.

        ``pages`` is every live page of the process; ``local_pages`` are the
        ones shipped during the freeze (the code/data/stack trio for AMPoM,
        everything for openMosix).
        """
        exists = page_flags(pages)
        local = page_flags(local_pages, len(exists))
        grow(exists, len(local))
        live = np.frombuffer(exists, dtype=np.uint8)
        shipped = np.frombuffer(local, dtype=np.uint8)
        unknown = np.flatnonzero(shipped > live).tolist()
        if unknown:
            raise MemoryStateError(f"local pages not part of the address space: {unknown}")
        mpt = cls(entry_bytes=entry_bytes)
        # A live page is LOCAL (1) if shipped, else HOME (2).
        mpt._codes = bytearray(live * _HOME - shipped * (_HOME - _LOCAL))
        mpt._n = int(np.count_nonzero(live))
        return mpt, HomePageTable._from_flags(mpt.flags_at(PageLocation.HOME))


def transfer_page(mpt: MasterPageTable, hpt: HomePageTable, vpn: int) -> None:
    """Atomically apply section 2.2's transfer rule: delete the origin copy
    and mark the MPT entry local."""
    hpt.release(vpn)
    mpt.mark_local(vpn)
