"""Live run inspector: periodic snapshots of an executing simulation.

The inspector registers as a :meth:`repro.sim.kernel.Simulator.add_observer`
hook — the same pure-observer seam the invariant checker uses — and takes a
snapshot whenever the simulated clock crosses the next sampling boundary.
Each snapshot captures the simulated time, events fired so far, and every
registered probe (a named zero-argument callable reading live state:
counters, budget buckets, queue depths).  Snapshots are kept in memory and
optionally echoed live (``repro trace run --inspect SECONDS``), so a long
sweep can be watched while it runs instead of post-mortem.

Observers never schedule or mutate model state, so attaching an inspector
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


class GaugeSampler:
    """Periodic gauge probe driven by simulator events (pure observer).

    Samples ``fn()`` whenever the clock crosses the next ``interval_s``
    boundary, writing each ``(t, value)`` pair to the metrics registry
    and, when a tracer is attached, to a Perfetto counter track.
    """

    __slots__ = ("name", "track", "interval_s", "_fn", "_metrics", "_tracer", "_next_t")

    def __init__(
        self,
        name: str,
        track: str,
        fn: Callable[[], float],
        interval_s: float,
        metrics=None,
        tracer=None,
    ) -> None:
        _check_interval(interval_s)
        self.name = name
        self.track = track
        self.interval_s = interval_s
        self._fn = fn
        self._metrics = metrics
        self._tracer = tracer
        self._next_t = 0.0

    def on_sim_event(self, t: float) -> None:
        if t < self._next_t:
            return
        self._next_t = t + self.interval_s
        value = float(self._fn())
        if self._metrics is not None:
            self._metrics.sample_gauge(self.name, t, value)
        if self._tracer is not None:
            self._tracer.counter(self.track, self.name, t, value)


__all__ = ["GaugeSampler", "RunInspector"]
