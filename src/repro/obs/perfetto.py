"""Chrome/Perfetto ``trace_event`` JSON export of a :class:`SpanTracer`.

The produced file loads directly in https://ui.perfetto.dev (or
``chrome://tracing``): drag the ``trace.json`` onto the page.  Mapping:

* each *track* ``"node/actor"`` becomes one named process/thread pair —
  the node is the Perfetto "process", the actor the "thread", so the UI
  groups migrants under ``dest``, home deputies under ``home``, a transit
  deputy under its node and every wire direction under ``wire``;
* spans are complete events (``"ph": "X"``) with microsecond timestamps
  in **simulated** time;
* instants (request sent, timeout, retransmit) are ``"ph": "i"`` markers;
* gauge samples (deputy queue depth) are counter tracks (``"ph": "C"``).
"""

from __future__ import annotations

import json
from pathlib import Path

from .spans import SpanTracer

#: Simulated seconds -> trace_event microseconds.
US = 1e6


def _split_track(track: str) -> tuple[str, str]:
    """``"dest/migrant"`` -> (process, thread); bare names get pid=track."""
    if "/" in track:
        process, thread = track.split("/", 1)
        return process, thread
    return track, track


def trace_events(tracer: SpanTracer) -> list[dict]:
    """The ``traceEvents`` list for one recorded run."""
    # Stable pid/tid assignment in track first-appearance order.
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    events: list[dict] = []

    def ids(track: str) -> tuple[int, int]:
        process, thread = _split_track(track)
        if process not in pids:
            pids[process] = len(pids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": pids[process],
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        pid = pids[process]
        key = (process, thread)
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[key],
                    "name": "thread_name",
                    "args": {"name": thread},
                }
            )
        return pid, tids[key]

    body: list[dict] = []
    for span in tracer.spans:
        pid, tid = ids(span.track)
        event = {
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": span.start * US,
            "dur": span.dur * US,
            "name": span.name,
            "cat": span.bucket if span.bucket is not None else "span",
        }
        if span.args:
            event["args"] = dict(span.args)
        body.append(event)
    for inst in tracer.instants:
        pid, tid = ids(inst.track)
        event = {
            "ph": "i",
            "pid": pid,
            "tid": tid,
            "ts": inst.time * US,
            "name": inst.name,
            "s": "t",
            "cat": "instant",
        }
        if inst.args:
            event["args"] = dict(inst.args)
        body.append(event)
    for sample in tracer.counters:
        pid, _ = ids(sample.track)
        body.append(
            {
                "ph": "C",
                "pid": pid,
                "ts": sample.time * US,
                "name": sample.name,
                "args": {"value": sample.value},
            }
        )
    body.sort(key=lambda e: e["ts"])
    return events + body


def to_perfetto(tracer: SpanTracer, journeys=None) -> dict:
    """The full JSON document (``traceEvents`` + display unit).

    ``journeys`` optionally merges a :class:`repro.obs.journeys.JourneyLog`
    into the same document: the journey lanes live under their own
    process (pid 9001, far above the tracer's first-appearance pids) with
    flow arrows chaining each migrant's stages, so one Perfetto view
    shows the span tracks and the causal journey arcs side by side.
    """
    events = trace_events(tracer)
    if journeys is not None:
        from .journeys import journey_trace_events

        events = events + journey_trace_events(journeys)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(tracer: SpanTracer, path: Path | str, journeys=None) -> Path:
    """Serialize the trace to ``path``; returns the written path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(to_perfetto(tracer, journeys=journeys)) + "\n")
    return out


def write_spans_jsonl(tracer: SpanTracer, path: Path | str) -> Path:
    """One JSON object per line: every span, instant and counter sample in
    recording order (grep/jq-friendly alternative to the Perfetto file)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    for span in tracer.spans:
        record = {
            "type": "span",
            "track": span.track,
            "name": span.name,
            "start": span.start,
            "dur": span.dur,
            "depth": span.depth,
        }
        if span.bucket is not None:
            record["bucket"] = span.bucket
        if span.args:
            record["args"] = dict(span.args)
        lines.append(json.dumps(record, sort_keys=True))
    for inst in tracer.instants:
        record = {"type": "instant", "track": inst.track, "name": inst.name, "t": inst.time}
        if inst.args:
            record["args"] = dict(inst.args)
        lines.append(json.dumps(record, sort_keys=True))
    for sample in tracer.counters:
        lines.append(
            json.dumps(
                {
                    "type": "counter",
                    "track": sample.track,
                    "name": sample.name,
                    "t": sample.time,
                    "value": sample.value,
                },
                sort_keys=True,
            )
        )
    out.write_text("\n".join(lines) + ("\n" if lines else ""))
    return out


__all__ = ["to_perfetto", "trace_events", "write_perfetto", "write_spans_jsonl"]
