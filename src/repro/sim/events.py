"""Event heap for the discrete-event kernel.

Events are ordered by ``(time, sequence)``: ties in simulated time are
broken by insertion order, which keeps runs fully deterministic for a given
seed and schedule order.

Hot-path layout: the heap stores plain ``(time, seq, callback)`` tuples so
ordering comparisons run on CPython's C tuple compare instead of a
Python-level ``__lt__``, and a push allocates nothing but its tuple.  This
kernel fires one event per simulated fault step, so both the per-push
allocation and the per-pop comparison count.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventQueue:
    """A deterministic min-heap of scheduled callbacks.

    Heap entries are ``(time, seq, callback)`` tuples; nothing is ever
    cancelled, so every entry fires once when popped.  The kernel's run
    loop and :meth:`Simulator.step` pop the heap directly.

    :meth:`push` and :meth:`push_callback` are two names for one
    operation: ``benchmarks/e2e/layers.py`` resolves each name to its
    code object to count ``sim.events``, so they are two functions rather
    than an alias, which would count every push twice.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        #: Heap entries are ``(time, seq, callback)`` tuples; exposed to
        #: the kernel, which pops inline.  Treat as private elsewhere.
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time``."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback))

    def push_callback(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (same as :meth:`push`)."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback))
