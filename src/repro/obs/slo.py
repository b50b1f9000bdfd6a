"""Declarative SLOs evaluated online against fleet telemetry.

An :class:`SLOSpec` is one threshold over a named metric —
``"p99_freeze_s<=0.5"``, ``"utilization_imbalance<=8"``,
``"mean_detection_latency_s<=2"`` — parsed from the CLI (``repro obs slo
--slo EXPR``, ``repro chaos --slo EXPR``) or built in code.  The
:class:`SLOMonitor` evaluates a set of specs against metric mappings: on
every shared-cadence telemetry tick during a sustained run (*online*
breaches carry the simulated time they first occurred) and once more
against the end-of-run summary metrics.  Breaches are structured
:class:`SLOBreach` events, bounded per spec so a threshold that is wrong
by design cannot flood memory, and the monitor's verdict gates process
exit codes: a breached chaos sweep exits 1 with the breach report.

Pure observer: evaluation reads metric values and records breaches; it
never touches the simulation.  See docs/OBSERVABILITY.md ("Fleet
telemetry").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError
from .metrics import nearest_rank

#: Retained breach events per spec; later repeats only bump the count.
MAX_BREACHES_PER_SPEC = 100


@dataclass(frozen=True, slots=True)
class SLOSpec:
    """One declarative threshold: ``metric <= limit`` or ``metric >= limit``."""

    metric: str
    op: str  # "<=" or ">="
    limit: float

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ConfigurationError(f"SLO operator must be <= or >=: {self.op!r}")
        if not self.metric:
            raise ConfigurationError("SLO metric name must be non-empty")

    @property
    def name(self) -> str:
        return f"{self.metric}{self.op}{self.limit:g}"

    def ok(self, value: float) -> bool:
        return value <= self.limit if self.op == "<=" else value >= self.limit

    @classmethod
    def parse(cls, expr: str) -> "SLOSpec":
        """Parse ``"metric<=value"`` / ``"metric>=value"`` (CLI form)."""
        for op in ("<=", ">="):
            if op in expr:
                metric, _, raw = expr.partition(op)
                try:
                    limit = float(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"SLO limit must be a number: {expr!r}"
                    ) from None
                return cls(metric=metric.strip(), op=op, limit=limit)
        raise ConfigurationError(
            f"SLO must look like 'metric<=value' or 'metric>=value': {expr!r}"
        )


@dataclass(frozen=True, slots=True)
class SLOBreach:
    """One structured breach event (simulated time, observed vs limit)."""

    t: float
    metric: str
    op: str
    limit: float
    observed: float

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "metric": self.metric,
            "op": self.op,
            "limit": self.limit,
            "observed": self.observed,
        }

    def describe(self) -> str:
        return (
            f"t={self.t:.4f}s {self.metric}={self.observed:g} "
            f"violates {self.metric}{self.op}{self.limit:g}"
        )


class SLOMonitor:
    """Evaluates a spec set against metric mappings; collects breaches."""

    __slots__ = ("specs", "breaches", "evaluations", "_counts")

    def __init__(self, specs: "tuple[SLOSpec, ...] | list[SLOSpec]") -> None:
        self.specs = tuple(specs)
        self.breaches: list[SLOBreach] = []
        #: Number of evaluate() calls (online ticks + final summaries).
        self.evaluations = 0
        self._counts: dict[str, int] = {}

    @classmethod
    def parse(cls, exprs) -> "SLOMonitor":
        return cls([SLOSpec.parse(e) for e in exprs])

    @property
    def ok(self) -> bool:
        return not self.breaches

    def breach_count(self, spec: SLOSpec) -> int:
        """Total breach occurrences of one spec (including truncated)."""
        return self._counts.get(spec.name, 0)

    def evaluate(self, t: float, metrics: Mapping[str, float]) -> list[SLOBreach]:
        """Check every spec whose metric is present; return new breaches.

        Metrics absent from the mapping are skipped — an online tick only
        knows the live series, the final pass adds the summary metrics.
        Per-spec retention is capped at :data:`MAX_BREACHES_PER_SPEC`
        events; further repeats bump :meth:`breach_count` only.
        """
        self.evaluations += 1
        new: list[SLOBreach] = []
        for spec in self.specs:
            value = metrics.get(spec.metric)
            if value is None:
                continue
            value = float(value)
            if spec.ok(value):
                continue
            count = self._counts.get(spec.name, 0) + 1
            self._counts[spec.name] = count
            if count <= MAX_BREACHES_PER_SPEC:
                breach = SLOBreach(
                    t=t, metric=spec.metric, op=spec.op,
                    limit=spec.limit, observed=value,
                )
                self.breaches.append(breach)
                new.append(breach)
        return new

    def report(self) -> dict:
        """Structured verdict: specs, evaluations, every retained breach."""
        return {
            "ok": self.ok,
            "specs": [s.name for s in self.specs],
            "evaluations": self.evaluations,
            "breach_counts": dict(sorted(self._counts.items())),
            "breaches": [b.as_dict() for b in self.breaches],
        }

    def describe(self) -> str:
        if self.ok:
            return (
                f"SLO ok: {len(self.specs)} spec(s), "
                f"{self.evaluations} evaluation(s), no breaches"
            )
        lines = [
            f"SLO BREACHED: {len(self.breaches)} event(s) across "
            f"{len(self._counts)} spec(s)"
        ]
        for name, count in sorted(self._counts.items()):
            lines.append(f"  {name}: {count} occurrence(s)")
        for breach in self.breaches[:10]:
            lines.append("  " + breach.describe())
        if len(self.breaches) > 10:
            lines.append(f"  ... {len(self.breaches) - 10} more")
        return "\n".join(lines)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) by the rank rule of
    :func:`repro.obs.metrics.nearest_rank`; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[nearest_rank(q * 100, len(ordered)) - 1]


def journey_summary_metrics(journeys, stats=None) -> dict[str, float]:
    """End-of-run SLO metric mapping from a JourneyLog (+ fault stats):
    p99 freeze seconds, p99 journey wall time, counters worth gating on."""
    freezes = journeys.freeze_seconds()
    walls = journeys.wall_times()
    metrics = {
        "p99_freeze_s": percentile(freezes, 0.99),
        "max_freeze_s": max(freezes) if freezes else 0.0,
        "journey_wall_s_p99": percentile(walls, 0.99),
        "journeys": float(len(journeys.journeys)),
        "migrations": float(journeys.count("decision")),
    }
    if stats is not None:
        metrics.update(
            {
                "crashes": float(stats.crashes),
                "kills": float(stats.kills),
                "detections": float(stats.detections),
                "mean_detection_latency_s": stats.mean_detection_latency_s,
                "chain_repairs": float(stats.chain_repairs),
                "migration_aborts": float(stats.migration_aborts),
            }
        )
    return metrics


__all__ = [
    "MAX_BREACHES_PER_SPEC",
    "SLOBreach",
    "SLOMonitor",
    "SLOSpec",
    "journey_summary_metrics",
    "percentile",
]
