"""repro.obs — unified tracing & telemetry for simulated runs.

One opt-in bundle, :class:`Observability`, carries the instruments a run
can attach:

* :class:`SpanTracer` — nested spans of every fault lifecycle, migration
  freeze, deputy service and wire transfer, in simulated time, with
  bucket-exact :class:`repro.metrics.timeline.TimeBudget` replication;
* :class:`MetricsRegistry` — histograms (stall latency, zone size ``N``,
  locality score ``S``), counters (prefetch accuracy/waste) and sampled
  gauges (deputy queue depth);
* :class:`RunInspector` — periodic live snapshots of the whole run via
  the simulator's observer hook;
* :class:`FleetTelemetry` — cluster-wide per-node time series on the
  sustained sampling cadence, with JSONL/OpenMetrics exporters;
* :class:`JourneyLog` — causal per-migrant journey traces (arrival,
  policy decision + gossip snapshot, freezes, recoveries, terminal
  state) that reconcile exactly against the run's counters.

All of them are pure observers: they read the simulated clock and model
state but never schedule events or mutate anything, so instrumented runs
are float-identical to bare runs (gated by the golden-trace harness).
Default runs pass ``obs=None`` everywhere and skip every hook — the
simulator keeps its no-observer fast path.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .flame import flame_rows, flame_summary
from .fleet import DEFAULT_RING_CAPACITY, FleetTelemetry, SeriesRing
from .inspector import GaugeSet, RunInspector
from .journeys import (
    Journey,
    JourneyEvent,
    JourneyLog,
    journey_trace_events,
    write_journeys_perfetto,
)
from .metrics import Histogram, MetricsRegistry
from .perfetto import to_perfetto, trace_events, write_perfetto, write_spans_jsonl
from .slo import SLOBreach, SLOMonitor, SLOSpec, journey_summary_metrics
from .spans import DEPUTY_TRACK, MIGRANT_TRACK, Span, SpanTracer, wire_track

#: Simulated-time period of each migrant's deputy queue-depth gauge.
DEFAULT_SAMPLE_INTERVAL_S = 0.05


@dataclass
class Observability:
    """The per-run observability bundle (every instrument optional)."""

    tracer: SpanTracer | None = None
    metrics: MetricsRegistry | None = None
    inspector: RunInspector | None = None
    #: Cluster-wide per-node time series (docs/OBSERVABILITY.md,
    #: "Fleet telemetry"); sampled on the sustained driver's cadence.
    fleet: FleetTelemetry | None = None
    #: Causal per-migrant journey traces (arrival -> decision -> hops ->
    #: completion/kill), reconcilable against the run's counters.
    journeys: JourneyLog | None = None

    @classmethod
    def enabled(
        cls,
        trace: bool = True,
        metrics: bool = True,
        inspect_interval_s: float | None = None,
        echo: Callable[[str], None] | None = None,
        fleet: bool = False,
        journeys: bool = False,
    ) -> "Observability":
        """Build a bundle with the requested instruments armed."""
        return cls(
            tracer=SpanTracer() if trace else None,
            metrics=MetricsRegistry() if metrics else None,
            inspector=(
                RunInspector(inspect_interval_s, echo=echo)
                if inspect_interval_s is not None
                else None
            ),
            fleet=FleetTelemetry() if fleet else None,
            journeys=JourneyLog() if journeys else None,
        )

    @property
    def active(self) -> bool:
        """Whether any instrument is armed (False = bare fast-path run)."""
        return (
            self.tracer is not None
            or self.metrics is not None
            or self.inspector is not None
            or self.fleet is not None
            or self.journeys is not None
        )


__all__ = [
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_SAMPLE_INTERVAL_S",
    "DEPUTY_TRACK",
    "FleetTelemetry",
    "GaugeSet",
    "Histogram",
    "Journey",
    "JourneyEvent",
    "JourneyLog",
    "MIGRANT_TRACK",
    "MetricsRegistry",
    "Observability",
    "RunInspector",
    "SLOBreach",
    "SLOMonitor",
    "SLOSpec",
    "SeriesRing",
    "Span",
    "SpanTracer",
    "flame_rows",
    "flame_summary",
    "journey_summary_metrics",
    "journey_trace_events",
    "to_perfetto",
    "trace_events",
    "wire_track",
    "write_journeys_perfetto",
    "write_perfetto",
    "write_spans_jsonl",
]
