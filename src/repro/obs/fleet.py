"""Fleet telemetry: per-node time series sampled on a simulated cadence.

:class:`FleetTelemetry` is the cluster-wide counterpart of the per-run
instruments in this package.  One collector instance rides a sustained or
chaos run and samples every registered probe on each *tick* of the shared
sampling path — the same simulated-time cadence the sustained driver's
utilization sampler has always used — into bounded per-``(node, series)``
ring buffers.  Typical series are local load, resident/remote page counts,
deputy queue depth, gossip-view staleness, in-flight migrations and
suspicion state.

The collector is a pure observer with a twist: the *cadence* it rides is
driven by the sustained driver's sampler process, which runs with the
identical ``Timeout`` schedule whether or not a collector is attached.
Arming telemetry therefore records more data at the same ticks but never
adds, removes or reorders simulator events — armed runs stay byte-identical
to unarmed ones, gated by the golden matrix and the CI ``cmp`` job.

Exports: one-sample-per-line JSONL (``write_jsonl``) and an
OpenMetrics/Prometheus text snapshot of the latest value of every series
(``prometheus_text``).  See docs/OBSERVABILITY.md ("Fleet telemetry").
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Iterator, Mapping

from ..errors import ConfigurationError

#: Default per-(node, series) ring capacity.  4096 samples at the default
#: 0.5 s sustained cadence covers a ~34 simulated-minute run per node and
#: series before the oldest samples are dropped (counted, never silent).
DEFAULT_RING_CAPACITY = 4096

#: Default simulated-time cadence of fleet sampling — matches the
#: sustained driver's ``sample_interval_s`` default so phase-2 gauges and
#: the phase-1 tick sweep land on the same grid.
DEFAULT_FLEET_INTERVAL_S = 0.5

#: Prefix for every exported OpenMetrics metric name.
_PROM_PREFIX = "repro_fleet_"


class SeriesRing:
    """Bounded ``(t, value)`` ring for one per-node time series.

    Keeps the most recent ``capacity`` samples; older samples are evicted
    and counted in :attr:`dropped` so exporters can flag truncation
    instead of silently presenting a partial series as complete.

    Times and values live in two ``array("d")`` columns that grow by one
    slot per sample until they hold ``capacity`` samples, then overwrite
    the oldest slot in place: a ring costs 16 bytes per retained sample,
    not its full capacity.
    """

    __slots__ = ("capacity", "dropped", "_t", "_v", "_start")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        _check_capacity(capacity)
        self.capacity = capacity
        self.dropped = 0
        self._t = array("d")
        self._v = array("d")
        #: Slot of the oldest sample once the ring is full (0 until then).
        self._start = 0

    def __len__(self) -> int:
        return len(self._t)

    def push(self, t: float, value: float) -> None:
        if len(self._t) < self.capacity:
            self._t.append(t)
            self._v.append(value)
            return
        idx = self._start
        self._t[idx] = t
        self._v[idx] = value
        self._start = (idx + 1) % self.capacity
        self.dropped += 1

    def samples(self) -> list[tuple[float, float]]:
        """Oldest-to-newest ``(t, value)`` pairs currently retained."""
        start = self._start
        t, v = self._t, self._v
        return list(zip(t[start:], v[start:])) + list(zip(t[:start], v[:start]))

    @property
    def last(self) -> tuple[float, float] | None:
        """Most recent ``(t, value)`` sample, or ``None`` when empty."""
        if not self._t:
            return None
        # The newest slot sits just before the oldest one; before the ring
        # fills, _start is 0 and index -1 is the last append.
        idx = self._start - 1
        return (self._t[idx], self._v[idx])


class FleetTelemetry:
    """Cluster-wide per-node time-series collector (pure observer).

    Three recording surfaces:

    * :meth:`push` — direct ``(node, series, t, value)`` writes from
      instrumented call sites (e.g. phase-2 gauge samplers);
    * :meth:`add_probe` — a named zero-argument live-state reader sampled
      on every :meth:`tick` of the shared sampling path;
    * :meth:`add_tick_hook` — a ``fn(t)`` callback invoked first on every
      tick, for batch recorders that read shared state once and push many
      series (the sustained driver's per-node load/gossip sweep), and for
      online :class:`repro.obs.slo.SLOMonitor` evaluation.
    """

    __slots__ = ("capacity", "interval_s", "ticks", "_rings", "_probes", "_hooks")

    def __init__(
        self,
        capacity: int = DEFAULT_RING_CAPACITY,
        interval_s: float = DEFAULT_FLEET_INTERVAL_S,
    ) -> None:
        _check_capacity(capacity)
        _check_interval(interval_s)
        self.capacity = capacity
        #: Sampling cadence in simulated seconds.  Gauge samplers riding a
        #: scenario runtime read it when they attach; the sustained driver
        #: overwrites it with the run's ``sample_interval_s`` so both
        #: phases land on the same grid.
        self.interval_s = interval_s
        #: Number of shared-cadence ticks observed so far.
        self.ticks = 0
        self._rings: dict[tuple[str, str], SeriesRing] = {}
        self._probes: dict[tuple[str, str], Callable[[], float]] = {}
        self._hooks: list[Callable[[float], None]] = []

    # -- recording -----------------------------------------------------
    def push(self, node: str, series: str, t: float, value: float) -> None:
        """Append one sample to the ``(node, series)`` ring."""
        key = (node, series)
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = SeriesRing(self.capacity)
        ring.push(t, float(value))

    def add_probe(self, node: str, series: str, fn: Callable[[], float]) -> None:
        """Register a live-state reader sampled on every tick."""
        self._probes[(node, series)] = fn

    def add_tick_hook(self, fn: Callable[[float], None]) -> None:
        """Register a callback run first on every shared-cadence tick."""
        self._hooks.append(fn)

    def remove_tick_hook(self, fn: Callable[[float], None]) -> None:
        """Unregister a callback added by :meth:`add_tick_hook`, so a
        finished run stops being reachable from this collector."""
        self._hooks.remove(fn)

    def tick(self, t: float) -> None:
        """One shared-cadence sample: hooks first, then every probe."""
        self.ticks += 1
        for hook in self._hooks:
            hook(t)
        for (node, series), fn in self._probes.items():
            self.push(node, series, t, float(fn()))

    # -- reading -------------------------------------------------------
    def nodes(self) -> list[str]:
        """Sorted node names with at least one recorded series."""
        return sorted({node for node, _ in self._rings})

    def series_names(self) -> list[str]:
        """Sorted series names recorded across all nodes."""
        return sorted({series for _, series in self._rings})

    def series(self, node: str, name: str) -> list[tuple[float, float]]:
        """Oldest-to-newest samples for one ``(node, series)``, or ``[]``."""
        ring = self._rings.get((node, name))
        return [] if ring is None else ring.samples()

    def ring(self, node: str, name: str) -> SeriesRing | None:
        return self._rings.get((node, name))

    def latest(self) -> dict[tuple[str, str], float]:
        """Latest value of every non-empty ``(node, series)``."""
        out: dict[tuple[str, str], float] = {}
        for key, ring in self._rings.items():
            last = ring.last
            if last is not None:
                out[key] = last[1]
        return out

    def dropped_samples(self) -> int:
        """Total samples evicted across all rings (0 = nothing truncated)."""
        return sum(ring.dropped for ring in self._rings.values())

    # -- exporters -----------------------------------------------------
    def to_jsonl_lines(self) -> Iterator[str]:
        """One compact JSON line per retained sample, deterministic order.

        Rows are ordered by ``(node, series)`` then sample time, so two
        identical runs serialize byte-identically.
        """
        import json

        for node, series in sorted(self._rings):
            ring = self._rings[(node, series)]
            for t, value in ring.samples():
                yield json.dumps(
                    {"node": node, "series": series, "t": t, "v": value},
                    separators=(",", ":"),
                )

    def write_jsonl(self, path: str) -> int:
        """Write every retained sample as JSONL; return the row count."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_jsonl_lines():
                fh.write(line + "\n")
                count += 1
        return count

    def prometheus_text(self, extra: Mapping[str, float] | None = None) -> str:
        """OpenMetrics/Prometheus text snapshot of the latest values.

        Each series becomes one gauge family ``repro_fleet_<series>`` with
        a ``node`` label per node; ``extra`` adds unlabeled cluster-level
        gauges (e.g. SLO evaluation counts).  Timestamps are simulated
        seconds and are deliberately omitted — the snapshot is a scrape of
        final state, not a wall-clock export.
        """
        lines: list[str] = []
        by_series: dict[str, list[tuple[str, float]]] = {}
        for (node, series), value in self.latest().items():
            by_series.setdefault(series, []).append((node, value))
        for series in sorted(by_series):
            metric = _PROM_PREFIX + _sanitize(series)
            lines.append(f"# TYPE {metric} gauge")
            for node, value in sorted(by_series[series]):
                lines.append(f'{metric}{{node="{node}"}} {_prom_value(value)}')
        if extra:
            for name in sorted(extra):
                metric = _PROM_PREFIX + _sanitize(name)
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {_prom_value(float(extra[name]))}")
        dropped = self.dropped_samples()
        lines.append(f"# TYPE {_PROM_PREFIX}dropped_samples counter")
        lines.append(f"{_PROM_PREFIX}dropped_samples {dropped}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path: str, extra: Mapping[str, float] | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.prometheus_text(extra=extra))


class FleetGauge:
    """Simulator-observer sampler feeding one fleet series (pure observer).

    The phase-2 counterpart of :class:`repro.obs.inspector.GaugeSampler`:
    samples ``fn()`` whenever the simulated clock crosses the next
    ``interval_s`` boundary and pushes the ``(t, value)`` pair into the
    collector's ring for ``(node, series)``.  Registered via
    ``Simulator.add_observer`` — it reads state but never schedules, so
    attaching it cannot perturb the run.
    """

    __slots__ = ("node", "series", "interval_s", "_fn", "_fleet", "_next_t")

    def __init__(
        self,
        fleet: FleetTelemetry,
        node: str,
        series: str,
        fn: Callable[[], float],
        interval_s: float,
    ) -> None:
        _check_interval(interval_s)
        self.node = node
        self.series = series
        self.interval_s = interval_s
        self._fn = fn
        self._fleet = fleet
        self._next_t = 0.0

    def on_sim_event(self, t: float) -> None:
        if t < self._next_t:
            return
        self._next_t = t + self.interval_s
        self._fleet.push(self.node, self.series, t, float(self._fn()))


class FleetGaugeSet:
    """One simulator observer sampling many fleet series together.

    Collapses what would be one :class:`FleetGauge` observer per
    ``(node, series)`` into a single callback with a shared interval
    boundary: the cheap ``t < next_t`` check runs once per simulator
    event no matter how many series are tracked, which is what keeps an
    armed phase-2 run inside the benchmarked overhead envelope
    (``cluster_sustained_telemetry`` vs ``cluster_sustained``).
    Entries added mid-run start sampling at the next shared boundary.
    """

    __slots__ = ("interval_s", "_fleet", "_entries", "_next_t")

    def __init__(self, fleet: FleetTelemetry, interval_s: float) -> None:
        _check_interval(interval_s)
        self.interval_s = interval_s
        self._fleet = fleet
        self._entries: list[tuple[str, str, Callable[[], float]]] = []
        self._next_t = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, node: str, series: str, fn: Callable[[], float]) -> None:
        self._entries.append((node, series, fn))

    def on_sim_event(self, t: float) -> None:
        if t < self._next_t:
            return
        self._next_t = t + self.interval_s
        push = self._fleet.push
        for node, series, fn in self._entries:
            push(node, series, t, float(fn()))


def _check_capacity(capacity: int) -> None:
    if not isinstance(capacity, int) or capacity <= 0:
        raise ConfigurationError(f"ring capacity must be a positive int: {capacity!r}")


def _check_interval(interval_s: float) -> None:
    if not 0.0 < interval_s < math.inf:
        raise ConfigurationError(
            f"sampling interval must be positive and finite: {interval_s}"
        )


def _prom_value(value: float) -> str:
    """Exposition text for one sample value that parses back exactly.

    Integral values below 2**53 print as plain integers, every other
    finite value as its shortest round-trip ``repr``, and non-finite
    values as the OpenMetrics tokens ``+Inf``, ``-Inf`` and ``NaN``.
    """
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 2**53:
        # "%.0f" keeps the sign of -0.0, which int() would drop.
        return f"{value:.0f}"
    return repr(value)


def _sanitize(name: str) -> str:
    """Map a series name onto the OpenMetrics name charset."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


__all__ = [
    "DEFAULT_FLEET_INTERVAL_S",
    "DEFAULT_RING_CAPACITY",
    "FleetGauge",
    "FleetGaugeSet",
    "FleetTelemetry",
    "SeriesRing",
]
