"""Dense page sets: one byte per page, indexed by vpn.

Every structure whose size follows the address space — the dirty map, the
MPT and HPT, the residency states and the executor's fetched set — keeps
its pages as a ``bytearray`` flag per vpn plus a running count.  That is
the paper's own accounting (section 5.2: the MPT costs 6 bytes per page;
the HPT is one "still at home" flag per page), and it costs one byte per
page instead of a hash-table slot and an int object.

A flag array only grows in place (``+=``), so aliases held by hot loops
stay valid.  A bytearray cannot be resized while a buffer view of it is
exported, so the numpy views below are created and dropped inside one
expression.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import MemoryStateError


def page_flags(pages: Iterable[int], size: int = 0) -> bytearray:
    """Flags with byte 1 at every vpn of ``pages``, at least ``size`` long."""
    vpns = np.fromiter(pages, dtype=np.int64)
    if vpns.size == 0:
        return bytearray(size)
    low = int(vpns.min())
    if low < 0:
        raise MemoryStateError(f"page {low} is not a valid page number")
    flags = np.zeros(max(size, int(vpns.max()) + 1), dtype=np.uint8)
    flags[vpns] = 1
    return bytearray(flags)


def flagged(flags: bytes | bytearray, value: int = 1) -> list[int]:
    """The vpns whose byte equals ``value``, ascending."""
    return np.flatnonzero(np.frombuffer(flags, dtype=np.uint8) == value).tolist()


def grow(flags: bytearray, size: int) -> None:
    """Extend ``flags`` in place with zero bytes to at least ``size``."""
    if size > len(flags):
        flags += bytes(size - len(flags))
