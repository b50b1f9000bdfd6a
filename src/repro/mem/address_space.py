"""Paged address space with named regions.

A process's address space is a sequence of regions (code, stack, and one or
more data/heap regions).  Pages are identified by virtual page number (vpn),
assigned contiguously per region.  After the allocation phase of an HPCC
kernel every data page is dirty (the paper migrates "right after a kernel
has finished allocating the required memory", section 5.1), which is what
makes openMosix's transfer-everything policy expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MemoryStateError
from ..units import PAGE_SIZE
from .flags import flagged


@dataclass(frozen=True, slots=True)
class Region:
    """A contiguous run of virtual pages."""

    name: str
    start_page: int
    n_pages: int

    @property
    def end_page(self) -> int:
        """One past the last vpn of the region."""
        return self.start_page + self.n_pages

    def __contains__(self, vpn: int) -> bool:
        return self.start_page <= vpn < self.end_page

    def page(self, index: int) -> int:
        """The vpn of the ``index``-th page of the region."""
        if not (0 <= index < self.n_pages):
            raise MemoryStateError(
                f"page index {index} out of range for region {self.name!r} ({self.n_pages} pages)"
            )
        return self.start_page + index


class AddressSpace:
    """Regions + dirty tracking for one simulated process.

    The conventional layout gives every process a small code region and a
    stack region; workloads then allocate data regions.  The trio returned
    by :meth:`currently_accessed_pages` is what FFA/AMPoM ship during the
    freeze (paper section 2.1: "the current data (heap), code, and stack
    pages").
    """

    #: Default sizes for the non-data regions (pages).
    CODE_PAGES = 64
    STACK_PAGES = 16

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self._regions: dict[str, Region] = {}
        self._next_page = 0
        # One byte per page, 1 while dirty, plus the running count.
        self._dirty = bytearray()
        self._n_dirty = 0
        self.code = self.allocate_region("code", self.CODE_PAGES)
        self.stack = self.allocate_region("stack", self.STACK_PAGES)
        # Code is clean (backed by the executable); the used stack is dirty.
        self._dirty[self.code.start_page : self.code.end_page] = bytes(self.code.n_pages)
        self._n_dirty -= self.code.n_pages

    # ------------------------------------------------------------------
    def allocate_region(self, name: str, n_pages: int) -> Region:
        """Allocate a new dirty region after the current break."""
        if name in self._regions:
            raise MemoryStateError(f"region {name!r} already exists")
        if n_pages <= 0:
            raise MemoryStateError(f"region must have at least one page, got {n_pages}")
        region = Region(name=name, start_page=self._next_page, n_pages=n_pages)
        self._regions[name] = region
        self._next_page += n_pages
        self._dirty += b"\x01" * n_pages
        self._n_dirty += n_pages
        return region

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryStateError(f"no region named {name!r}")

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions.values())

    @property
    def total_pages(self) -> int:
        return self._next_page

    @property
    def total_bytes(self) -> int:
        return self._next_page * self.page_size

    # ------------------------------------------------------------------
    # dirty tracking
    # ------------------------------------------------------------------
    @property
    def dirty_pages(self) -> frozenset[int]:
        """Pages that would have to be shipped by openMosix's migration."""
        return frozenset(flagged(self._dirty))

    def dirty_flags(self) -> bytearray:
        """A copy of the dirty map: one byte per page, 1 for a dirty page."""
        return bytearray(self._dirty)

    def mark_dirty(self, vpn: int) -> None:
        self._check_vpn(vpn)
        if not self._dirty[vpn]:
            self._dirty[vpn] = 1
            self._n_dirty += 1

    def mark_clean(self, vpn: int) -> None:
        if 0 <= vpn < self._next_page and self._dirty[vpn]:
            self._dirty[vpn] = 0
            self._n_dirty -= 1

    # ------------------------------------------------------------------
    def currently_accessed_pages(self) -> tuple[int, int, int]:
        """(code, data, stack) pages shipped during an FFA/AMPoM freeze.

        We take the entry point of the code region, the first page of the
        first data region (the page the kernel resumes on), and the top of
        the stack.
        """
        data_regions = [r for r in self._regions.values() if r.name not in ("code", "stack")]
        if not data_regions:
            raise MemoryStateError("address space has no data region; allocate one first")
        return (
            self.code.start_page,
            data_regions[0].start_page,
            self.stack.end_page - 1,
        )

    def _check_vpn(self, vpn: int) -> None:
        if not (0 <= vpn < self._next_page):
            raise MemoryStateError(f"vpn {vpn} outside address space (0..{self._next_page - 1})")
