"""Fleet telemetry: per-node time series sampled on a simulated cadence.

:class:`FleetTelemetry` is the cluster-wide counterpart of the per-run
instruments in this package: a pure collector of bounded per-``(node,
series)`` ring buffers that one sustained or chaos run pushes samples
into.  Typical series are local load, resident/remote page counts, deputy
queue depth, gossip-view staleness, in-flight migrations and suspicion
state.

Two writers share one simulated-time cadence.  The sustained driver's
utilization-sampler process pushes the per-node load and gossip series on
each of its ticks, and runs with the identical ``Timeout`` schedule
whether or not a collector is attached.  During phase 2 a
:class:`repro.obs.inspector.GaugeSet` observer samples the per-node page
and deputy-queue series at ``interval_s``.  Arming telemetry therefore
records more data but never adds, removes or reorders simulator events —
armed runs stay byte-identical to unarmed ones, gated by the golden
matrix and the CI ``cmp`` job.

Exports: one-sample-per-line JSONL (``write_jsonl``) and an
OpenMetrics/Prometheus text snapshot of the latest value of every series
(``prometheus_text``).  See docs/OBSERVABILITY.md ("Fleet telemetry").
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, Mapping

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

    Callers record with :meth:`push`, one ``(node, series, t, value)``
    sample at a time: the sustained driver's per-node sweep on every
    utilization tick, and the phase-2 gauges of the scenario runtime.
    """

    __slots__ = ("capacity", "interval_s", "_rings")

    def __init__(
        self,
        capacity: int = DEFAULT_RING_CAPACITY,
        interval_s: float = DEFAULT_FLEET_INTERVAL_S,
    ) -> None:
        _check_capacity(capacity)
        _check_interval(interval_s)
        self.capacity = capacity
        #: Sampling cadence in simulated seconds.  The scenario runtime's
        #: phase-2 gauges read it when they attach; the sustained driver
        #: overwrites it with the run's ``sample_interval_s`` so both
        #: phases land on the same grid.
        self.interval_s = interval_s
        self._rings: dict[tuple[str, str], SeriesRing] = {}

    def push(self, node: str, series: str, t: float, value: float) -> None:
        """Append one sample to the ``(node, series)`` ring."""
        key = (node, series)
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = SeriesRing(self.capacity)
        ring.push(t, float(value))

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
    "FleetTelemetry",
    "SeriesRing",
]
