"""Virtual-memory substrate.

Models the parts of the Linux/openMosix memory system the paper's mechanism
touches: a paged address space with code/data/stack regions
(:mod:`repro.mem.address_space`), the master and home page tables of the
remote-paging support (:mod:`repro.mem.page_table`, paper section 2.2), the
residency state machine a migrant sees (:mod:`repro.mem.residency`), the
page-fault taxonomy (:mod:`repro.mem.fault`), a Linux-style read-ahead
baseline (:mod:`repro.mem.readahead`), and an optional LRU capacity model
(:mod:`repro.mem.lru`).  Per-page state is dense: one byte per page
(:mod:`repro.mem.flags`).
"""

from .address_space import AddressSpace, Region
from .fault import FaultKind
from .lru import LruPageCache
from .page_table import HomePageTable, MasterPageTable, PageLocation, transfer_page
from .readahead import LinuxReadAhead, sequential_successors
from .residency import ResidencyTracker

__all__ = [
    "AddressSpace",
    "FaultKind",
    "HomePageTable",
    "LinuxReadAhead",
    "LruPageCache",
    "MasterPageTable",
    "PageLocation",
    "Region",
    "ResidencyTracker",
    "sequential_successors",
    "transfer_page",
]
