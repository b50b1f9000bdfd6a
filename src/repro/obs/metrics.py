"""Histogram / counter / gauge registry for simulated-time telemetry.

The registry is write-cheap (one array append or dict add per observation)
and derives summaries on demand: each histogram reports count/min/max/mean
plus nearest-rank p50/p95/p99 — the percentile definition is deterministic
and needs no interpolation choices, so summaries are reproducible across
platforms.

Like the span tracer, the registry is a pure observer: it never touches
simulation state, so runs with metrics enabled stay float-identical to
runs without.
"""

from __future__ import annotations

from array import array

from ..metrics.report import format_table

#: Percentiles every histogram summary reports.
PERCENTILES = (50, 95, 99)


def nearest_rank(p: float, n: int) -> int:
    """1-based rank of the nearest-rank ``p``-th percentile (0 < p <= 100)
    of ``n >= 1`` sorted values.

    Nearest-rank is the smallest value with at least p% of the mass at or
    below it: rank ``ceil(p*n/100)``, clamped to ``[1, n]``.  An integer
    ``p`` is computed in integer arithmetic, so there is no
    platform-dependent float drift.
    """
    return min(max(int(-(-p * n // 100)), 1), n)


class Histogram:
    """Streaming value collector with on-demand quantile summaries.

    Samples are float64, 8 bytes each, in one ``array("d")``: no Python
    object per sample and nothing for the garbage collector to track.  A
    float reads back exactly as observed; anything else is converted to a
    float on the way in (``observe(3)`` reads back ``3.0``).
    """

    __slots__ = ("name", "_values", "observe")

    def __init__(self, name: str) -> None:
        self.name = name
        values = array("d")
        self._values = values
        #: Recording is the registry's only hot operation — ``observe``
        #: is the sample array's own ``append``, one C call per sample.
        self.observe = values.append

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    def percentile(self, p: int) -> float:
        """Nearest-rank percentile (0 < p <= 100, see :func:`nearest_rank`);
        0.0 on an empty histogram."""
        values = self._values
        if not values:
            return 0.0
        ordered = sorted(values)
        return ordered[nearest_rank(p, len(ordered)) - 1]

    def summary(self) -> dict[str, float]:
        """Zero-filled summary; never raises or returns NaN on empty data."""
        values = self._values
        if not values:
            return {
                "count": 0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                **{f"p{p}": 0.0 for p in PERCENTILES},
            }
        ordered = sorted(values)
        n = len(ordered)
        out: dict[str, float] = {
            "count": n,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / n,
        }
        for p in PERCENTILES:
            out[f"p{p}"] = ordered[nearest_rank(p, n) - 1]
        return out


class MetricsRegistry:
    """Named histograms, monotonic counters and sampled gauges.

    Histograms hold per-event observations (stall latency, zone size N,
    locality score S); counters hold end-of-run scalars (prefetch accuracy,
    wasted pages); gauges hold periodically sampled time series (deputy
    queue depth) — each sample is ``(simulated_time, value)``.
    """

    __slots__ = ("_histograms", "_counters", "_gauges")

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, list[tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    def count(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_counter(self, name: str, value: float) -> None:
        self._counters[name] = value

    def sample_gauge(self, name: str, t: float, value: float) -> None:
        self._gauges.setdefault(name, []).append((t, value))

    # ------------------------------------------------------------------
    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    @property
    def counter_values(self) -> dict[str, float]:
        return dict(self._counters)

    def gauge_samples(self, name: str) -> list[tuple[float, float]]:
        return list(self._gauges.get(name, ()))

    @property
    def gauges(self) -> dict[str, list[tuple[float, float]]]:
        return {name: list(samples) for name, samples in self._gauges.items()}

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready snapshot of every metric (histograms summarized)."""
        gauges = {}
        for name, samples in self._gauges.items():
            hist = Histogram(name)
            for _, value in samples:
                hist.observe(value)
            gauges[name] = {"samples": len(samples), **hist.summary()}
        return {
            "histograms": {
                name: hist.summary() for name, hist in self._histograms.items()
            },
            "counters": dict(self._counters),
            "gauges": gauges,
        }

    def render(self) -> str:
        """Aligned text report of the registry (CLI ``--metrics`` output)."""
        blocks: list[str] = []
        summary = self.summary()
        hist_rows = [
            [name, s["count"], s["min"], s["mean"], s["p50"], s["p95"], s["p99"], s["max"]]
            for name, s in summary["histograms"].items()
        ]
        gauge_rows = [
            [name, s["samples"], s["min"], s["mean"], s["p50"], s["p95"], s["p99"], s["max"]]
            for name, s in summary["gauges"].items()
        ]
        headers = ["metric", "n", "min", "mean", "p50", "p95", "p99", "max"]
        if hist_rows or gauge_rows:
            blocks.append(format_table(headers, hist_rows + gauge_rows))
        if summary["counters"]:
            blocks.append(
                format_table(
                    ["counter", "value"],
                    [[name, value] for name, value in summary["counters"].items()],
                )
            )
        return "\n\n".join(blocks) if blocks else "(no metrics recorded)"


__all__ = ["Histogram", "MetricsRegistry", "PERCENTILES", "nearest_rank"]
