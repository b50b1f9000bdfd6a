"""Clock-boundary samplers: the live run inspector and gauge sets.

Both register as :meth:`repro.sim.kernel.Simulator.add_observer` hooks —
the same pure-observer seam the invariant checker uses — and sample
whenever the simulated clock crosses their next boundary.  One crossing
takes one sample; an idle gap skips boundaries rather than emitting a
backlog of identical samples.

* :class:`RunInspector` snapshots the simulated time, the events fired so
  far and every registered probe (a named zero-argument callable reading
  live state: counters, budget buckets, queue depths).  Snapshots are
  kept in memory and optionally echoed live (``repro run --inspect
  SECONDS``), so a long sweep can be watched while it runs instead of
  post-mortem.
* :class:`GaugeSet` samples ``(fn, sink)`` entries on one shared
  boundary and hands each ``(t, value)`` pair to its sink: a metrics
  gauge, a tracer counter track or a fleet-telemetry series.

Observers never schedule or mutate model state, so attaching a sampler
cannot perturb the simulation — it only forgoes the kernel's no-observer
fast path for the run being watched.
"""

from __future__ import annotations

from typing import Callable

from .fleet import _check_interval


class RunInspector:
    """Samples live run state every ``interval_s`` of simulated time."""

    __slots__ = ("interval_s", "snapshots", "echo", "_probes", "_next_t", "_events")

    def __init__(
        self,
        interval_s: float,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        _check_interval(interval_s)
        self.interval_s = interval_s
        self.snapshots: list[dict[str, float]] = []
        #: Optional sink for live one-line snapshot reports.
        self.echo = echo
        self._probes: dict[str, Callable[[], float]] = {}
        self._next_t = 0.0
        self._events = 0

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a named live-state reader sampled at each snapshot."""
        self._probes[name] = fn

    # ------------------------------------------------------------------
    def on_sim_event(self, t: float) -> None:
        """Simulator observer: snapshot when the clock crosses a boundary."""
        self._events += 1
        if t < self._next_t:
            return
        # One snapshot per crossing; idle gaps skip boundaries entirely
        # rather than emitting a backlog of identical samples.
        self._next_t = t + self.interval_s
        snapshot: dict[str, float] = {"t": t, "events": float(self._events)}
        for name, fn in self._probes.items():
            snapshot[name] = float(fn())
        self.snapshots.append(snapshot)
        if self.echo is not None:
            self.echo(self.format_snapshot(snapshot))

    # ------------------------------------------------------------------
    @staticmethod
    def format_snapshot(snapshot: dict[str, float]) -> str:
        parts = [f"t={snapshot['t']:.4f}s", f"events={int(snapshot['events'])}"]
        parts.extend(
            f"{name}={value:g}"
            for name, value in snapshot.items()
            if name not in ("t", "events")
        )
        return "[inspect] " + " ".join(parts)

    @property
    def events_seen(self) -> int:
        return self._events


class GaugeSet:
    """Gauges sampled together on one clock boundary (pure observer).

    Each entry is a ``(fn, sink)`` pair: on every boundary crossing the
    set calls ``sink(t, float(fn()))`` for each entry in the order they
    were added.  The cheap ``t < next_t`` check runs once per simulator
    event however many entries share it, which keeps an armed fleet run
    inside its benchmarked overhead.  Entries added mid-run start
    sampling at the next shared boundary.
    """

    __slots__ = ("interval_s", "_entries", "_next_t")

    def __init__(self, interval_s: float) -> None:
        _check_interval(interval_s)
        self.interval_s = interval_s
        self._entries: list[tuple[Callable[[], float], Callable[[float, float], None]]] = []
        self._next_t = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, fn: Callable[[], float], sink: Callable[[float, float], None]) -> None:
        """Sample ``fn()`` into ``sink(t, value)`` from the next boundary on."""
        self._entries.append((fn, sink))

    def on_sim_event(self, t: float) -> None:
        if t < self._next_t:
            return
        self._next_t = t + self.interval_s
        for fn, sink in self._entries:
            sink(t, float(fn()))


__all__ = ["GaugeSet", "RunInspector"]
