"""Shared helpers for the core suite."""

from __future__ import annotations

from repro.core.incremental import IncrementalWindow


def window_of(pages, dmax: int = 4) -> IncrementalWindow:
    """An :class:`IncrementalWindow` as long as ``pages`` (at least 2) that
    recorded them, one fault per second at full CPU share; a consecutive
    repeat collapses into one reference, as section 3.1 prescribes."""
    window = IncrementalWindow(max(len(pages), 2), dmax)
    for t, vpn in enumerate(pages):
        window.record(vpn, float(t), 1.0)
    return window
