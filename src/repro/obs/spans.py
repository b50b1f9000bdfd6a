"""Span-based tracing in **simulated time**.

A :class:`Span` is a named interval on a *track* (one per simulated actor:
the migrant, the deputy, each wire direction).  Spans nest — a ``fault``
span contains its ``copy``/``analysis``/``stall`` children — and may carry
a :class:`repro.metrics.timeline.TimeBudget` *bucket*: the span's duration
is then an exact replica of one charge made to that bucket, recorded at
the same code site with the same float value.  :meth:`SpanTracer.
bucket_sums` re-accumulates those durations in recording order, so per
bucket the sum equals the budget field *bit for bit* — the tracer's
self-check (and the integration suite) assert exact float equality, not an
approximation.

The tracer is a pure observer: it reads the simulated clock but never
schedules events or mutates model state, so a traced run is float-identical
to an untraced one (the golden-trace harness gates this in CI).

Storage is a **preallocated columnar ring**: spans and instants land in
flat ``array`` columns (one packed int64 ``meta_id << 16 | depth`` word
plus float64 times) indexed by a running row counter, doubling capacity
when full — no per-event Python object is allocated on the hot path.  A
span's ``(track, name, bucket)`` triple is interned to one integer id on
first sight (instrumentation sites reuse a handful of triples thousands
of times); args ride in a dense side list as unboxed key/value tuples.
Hot instrumentation sites go one step further: :meth:`span_site`,
:meth:`open_span_site`, :meth:`instant_site` and :meth:`wire_hook` hand
out per-site closures with the meta id pre-interned, so recording is a
handful of column stores with no lookups at all.  The object views
(:attr:`SpanTracer.spans`, :attr:`SpanTracer.instants`) are materialized
lazily and cached — exporters and tests pay for objects, the simulation
never does — and :meth:`bucket_sums` folds straight over the columns in
recording order, preserving the exact float accumulation the budget made.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..errors import SimulationError

#: Track names used by the built-in instrumentation.
MIGRANT_TRACK = "dest/migrant"
DEPUTY_TRACK = "home/deputy"

#: Initial ring capacity (rows); doubled whenever full.
_INITIAL_CAPACITY = 1024


def wire_track(direction_name: str) -> str:
    """Track name for one wire direction (e.g. ``wire/home->dest``)."""
    return f"wire/{direction_name}"


def _promote(a, mid, arg_keys):
    """Materialize a stored args value: dicts pass through; unboxed
    ``(k1, v1, k2, v2, ...)`` tuples from the fast paths become dicts; a
    bare scalar is the value of its site's registered fixed key."""
    if a is None or type(a) is dict:
        return a
    if type(a) is tuple:
        return {a[0]: a[1]} if len(a) == 2 else dict(zip(a[::2], a[1::2]))
    return {arg_keys[mid]: a}


@dataclass(slots=True)
class Span:
    """One completed interval of simulated time on a track.

    ``dur`` is authoritative: for budget-carrying spans it is the exact
    float charged to the :class:`TimeBudget` bucket.  ``end`` is derived
    (``start + dur``) and only used for display/export.

    Instances are materialized views over the tracer's columnar storage —
    mutating one changes the view, not the recording.
    """

    track: str
    name: str
    start: float
    dur: float
    #: TimeBudget bucket this duration replicates, or None.
    bucket: str | None = None
    #: Nesting depth within the track at begin time (0 = top level).
    depth: int = 0
    args: dict | None = None

    @property
    def end(self) -> float:
        return self.start + self.dur


@dataclass(slots=True)
class Instant:
    """A zero-duration marker event (request sent, timeout fired, ...)."""

    track: str
    name: str
    time: float
    args: dict | None = None


@dataclass(slots=True)
class CounterSample:
    """One sample of a numeric time series (Perfetto counter track)."""

    track: str
    name: str
    time: float
    value: float


class SpanTracer:
    """Records spans, instants and counter samples of one simulated run.

    Spans are recorded either whole, when the caller knows the start and
    the exact duration (:meth:`complete`, and its per-site form
    :meth:`span_site`: every ``TimeBudget`` charge site records the span
    right where it charges the bucket), or as an enclosing span whose
    extent is only known at its end (:meth:`open_span_site`, the
    per-fault lifecycle wrapper), inside which other spans nest.
    Instants come from :meth:`instant` or a per-site :meth:`instant_site`,
    wire messages from :meth:`wire_hook`, and counter samples from
    :meth:`counter`.  High-volume callers resolve a per-site recorder
    once and call that.  All paths write the same ring columns; read
    :attr:`spans` for the object view.
    """

    __slots__ = (
        "counters",
        "_meta_ids",
        "_metas",
        "_s_n",
        "_s_cap",
        "_s_md",
        "_s_start",
        "_s_dur",
        "_s_args",
        "_i_n",
        "_i_cap",
        "_i_meta",
        "_i_time",
        "_i_args",
        "_open",
        "_arg_keys",
        "_view",
        "_view_n",
        "_i_view",
        "_i_view_n",
    )

    def __init__(self) -> None:
        self.counters: list[CounterSample] = []
        # Intern table for (track, name, bucket) triples; instants intern
        # (track, name, None) triples through the same table.
        self._meta_ids: dict[tuple[str, str, str | None], int] = {}
        self._metas: list[tuple[str, str, str | None]] = []
        # Span ring columns, parallel by row (row order = completion
        # order).  The meta id and nesting depth share one int64 word
        # (``mid << 16 | depth``) so a span is two array stores plus one
        # list append; depth is bounded by the open-span stacks, which
        # never come near 2**16.
        cap = _INITIAL_CAPACITY
        self._s_n = 0
        self._s_cap = cap
        self._s_md = array("q", bytes(8 * cap))
        self._s_start = array("d", bytes(8 * cap))
        self._s_dur = array("d", bytes(8 * cap))
        #: Dense row -> args list (appended on every record): None, a
        #: kwargs dict, or an unboxed (k1, v1, ...) tuple from the fast
        #: paths, promoted to a dict when the view materializes.
        self._s_args: list = []
        # Instant ring columns.
        self._i_n = 0
        self._i_cap = cap
        self._i_meta = array("q", bytes(8 * cap))
        self._i_time = array("d", bytes(8 * cap))
        self._i_args: list = []
        # Per-track stacks of open (start, depth, args) records.
        self._open: dict[str, list] = {}
        # meta id -> fixed arg key for single-arg recording sites; lets
        # those sites store the bare value with no per-event tuple.
        self._arg_keys: dict[int, str] = {}
        # Cached materialized views, validated against the row counters
        # (appends only ever grow the rings, so a row-count match means
        # the cache is current — the hot path never touches these).
        self._view: list[Span] | None = None
        self._view_n = -1
        self._i_view: list[Instant] | None = None
        self._i_view_n = -1

    def __len__(self) -> int:
        return self._s_n

    def _meta_id(self, key: tuple[str, str, str | None]) -> int:
        mid = self._meta_ids.get(key)
        if mid is None:
            mid = len(self._metas)
            self._meta_ids[key] = mid
            self._metas.append(key)
        return mid

    def _grow_spans(self) -> None:
        # Self-extension doubles capacity; rows past _s_n are scratch.
        self._s_md.extend(self._s_md)
        self._s_start.extend(self._s_start)
        self._s_dur.extend(self._s_dur)
        self._s_cap *= 2

    def _grow_instants(self) -> None:
        self._i_meta.extend(self._i_meta)
        self._i_time.extend(self._i_time)
        self._i_cap *= 2

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def complete(
        self,
        track: str,
        name: str,
        start: float,
        dur: float,
        bucket: str | None = None,
        **args: object,
    ) -> None:
        """Record a finished span with an explicit (exact) duration."""
        if dur < 0.0:
            raise SimulationError(f"span {name!r} has negative duration {dur}")
        key = (track, name, bucket)
        mid = self._meta_ids.get(key)
        if mid is None:
            mid = self._meta_id(key)
        stack = self._open.get(track)
        row = self._s_n
        if row == self._s_cap:
            self._grow_spans()
        self._s_args.append(args or None)
        self._s_md[row] = mid << 16 | (len(stack) if stack else 0)
        self._s_start[row] = start
        self._s_dur[row] = dur
        self._s_n = row + 1

    def instant(self, track: str, name: str, t: float, **args: object) -> None:
        """Record a zero-duration marker."""
        row = self._i_n
        if row == self._i_cap:
            self._grow_instants()
        self._i_args.append(args or None)
        self._i_meta[row] = self._meta_id((track, name, None))
        self._i_time[row] = t
        self._i_n = row + 1

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        """Record one sample of a numeric time series."""
        self.counters.append(CounterSample(track, name, t, value))

    # ------------------------------------------------------------------
    # per-site recorders (the hot paths)
    # ------------------------------------------------------------------
    def span_site(self, track: str, name: str, bucket: str | None = None, arg: str | None = None):
        """A per-site recorder closure — :meth:`wire_hook`'s trick
        generalized for any fixed-shape instrumentation site.

        The ``(track, name, bucket)`` triple is interned once here; each
        call then writes the ring columns directly with no meta lookup.
        With ``arg`` set the closure signature is ``rec(start, dur,
        value)`` and the span carries ``{arg: value}``; without it the
        signature is ``rec(start, dur)`` and the span carries no args.
        The executor resolves one recorder per budget-charge site, which
        is where most of a traced run's spans come from.
        """
        raw_mid = self._meta_id((track, name, bucket))
        if arg is not None:
            self._arg_keys[raw_mid] = arg
        mid = raw_mid << 16
        # The column objects and the per-track stack keep their identity
        # for the tracer's lifetime (growth extends the arrays in place),
        # so the closures capture them once instead of reloading
        # attributes on every record.
        stack = self._open.setdefault(track, [])
        args_append = self._s_args.append
        s_md, s_start, s_dur = self._s_md, self._s_start, self._s_dur
        if arg is None:

            def rec(start: float, dur: float) -> None:
                if dur < 0.0:
                    raise SimulationError(
                        f"span {name!r} has negative duration {dur}"
                    )
                row = self._s_n
                if row == self._s_cap:
                    self._grow_spans()
                args_append(None)
                s_md[row] = mid | len(stack)
                s_start[row] = start
                s_dur[row] = dur
                self._s_n = row + 1

        else:

            def rec(start: float, dur: float, value: object) -> None:
                if dur < 0.0:
                    raise SimulationError(
                        f"span {name!r} has negative duration {dur}"
                    )
                row = self._s_n
                if row == self._s_cap:
                    self._grow_spans()
                args_append(value)
                s_md[row] = mid | len(stack)
                s_start[row] = start
                s_dur[row] = dur
                self._s_n = row + 1

        return rec

    def open_span_site(self, track: str, name: str, end_keys: tuple[str, str, str]):
        """Paired ``(begin, end)`` recorders for one enclosing span whose
        extent is only known at its end — the executor's per-fault
        wrapper.  The meta triple is interned once; ``begin(t, key,
        value)`` opens the span on the track's stack, and ``end(t, v1, v2,
        v3)`` closes the innermost open span with the begin pair plus the
        three ``end_keys`` pairs as its args, stored as one flat tuple and
        promoted to a dict only when :attr:`spans` materializes.

        Spans recorded on the track while one is open nest one level
        deeper.  The site must strictly pair its own begin/end (the popped
        record is assumed to be this site's).
        """
        mid = self._meta_id((track, name, None)) << 16
        stack = self._open.setdefault(track, [])
        stack_append = stack.append
        stack_pop = stack.pop
        args_append = self._s_args.append
        s_md, s_start, s_dur = self._s_md, self._s_start, self._s_dur
        k1, k2, k3 = end_keys

        def begin(t: float, key: str, value: object) -> None:
            stack_append((t, len(stack), (key, value)))

        def end(t: float, v1: object, v2: object, v3: object) -> None:
            if not stack:
                raise SimulationError(f"end() without begin() on track {track!r}")
            start, depth, open_args = stack_pop()
            if t < start:
                raise SimulationError(
                    f"span {name!r} ends before it starts ({t} < {start})"
                )
            row = self._s_n
            if row == self._s_cap:
                self._grow_spans()
            args_append(open_args + (k1, v1, k2, v2, k3, v3))
            s_md[row] = mid | depth
            s_start[row] = start
            s_dur[row] = t - start
            self._s_n = row + 1

        return begin, end

    def instant_site(self, track: str, name: str, k1: str, k2: str | None = None):
        """Per-site instant recorder with one or two fixed arg keys.

        ``rec(t, v1)`` (or ``rec(t, v1, v2)``) records the marker with
        ``{k1: v1}`` (or ``{k1: v1, k2: v2}``); the pairs are stored
        unboxed and promoted to dicts when :attr:`instants` materializes.
        """
        mid = self._meta_id((track, name, None))
        if k2 is None:
            self._arg_keys[mid] = k1
        args_append = self._i_args.append
        i_meta, i_time = self._i_meta, self._i_time
        if k2 is None:

            def rec(t: float, v1: object) -> None:
                row = self._i_n
                if row == self._i_cap:
                    self._grow_instants()
                args_append(v1)
                i_meta[row] = mid
                i_time[row] = t
                self._i_n = row + 1

        else:

            def rec(t: float, v1: object, v2: object) -> None:
                row = self._i_n
                if row == self._i_cap:
                    self._grow_instants()
                args_append((k1, v1, k2, v2))
                i_meta[row] = mid
                i_time[row] = t
                self._i_n = row + 1

        return rec

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Materialized object view of the span columns, in recording
        (completion) order.  Built lazily and cached until the next
        append; exporters and tests read this, the hot path never does.
        """
        view = self._view
        n = self._s_n
        if view is None or self._view_n != n:
            metas = self._metas
            args = self._s_args
            arg_keys = self._arg_keys
            view = []
            for row in range(n):
                md = self._s_md[row]
                track, name, bucket = metas[md >> 16]
                view.append(
                    Span(
                        track,
                        name,
                        self._s_start[row],
                        self._s_dur[row],
                        bucket,
                        md & 0xFFFF,
                        _promote(args[row], md >> 16, arg_keys),
                    )
                )
            self._view = view
            self._view_n = n
        return view

    @property
    def instants(self) -> list[Instant]:
        """Materialized object view of the instant columns, in recording
        order (lazily built and cached, like :attr:`spans`)."""
        view = self._i_view
        n = self._i_n
        if view is None or self._i_view_n != n:
            metas = self._metas
            args = self._i_args
            arg_keys = self._arg_keys
            view = []
            for row in range(n):
                mid = self._i_meta[row]
                track, name, _ = metas[mid]
                view.append(
                    Instant(
                        track,
                        name,
                        self._i_time[row],
                        _promote(args[row], mid, arg_keys),
                    )
                )
            self._i_view = view
            self._i_view_n = n
        return view

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (0 after a clean run)."""
        return sum(len(s) for s in self._open.values())

    def bucket_sums(self) -> dict[str, float]:
        """Per-bucket sequential sum of span durations.

        Durations are accumulated in recording order — the same floats in
        the same order as the ``TimeBudget`` charges they replicate — so
        each sum equals the corresponding budget field exactly.  Folds
        directly over the columns; no Span objects are built.
        """
        sums: dict[str, float] = {}
        metas = self._metas
        md_col = self._s_md
        dur_col = self._s_dur
        for row in range(self._s_n):
            bucket = metas[md_col[row] >> 16][2]
            if bucket is not None:
                sums[bucket] = sums.get(bucket, 0.0) + dur_col[row]
        return sums

    def verify_budget(self, budget) -> None:
        """Raise :class:`SimulationError` on any unattributed simulated
        time: every ``TimeBudget`` bucket must equal its span sum exactly.
        """
        sums = self.bucket_sums()
        for bucket, charged in budget.as_dict().items():
            recorded = sums.pop(bucket, 0.0)
            if recorded != charged:
                raise SimulationError(
                    f"bucket {bucket!r}: budget charged {charged!r} but spans "
                    f"record {recorded!r} (unattributed simulated time)"
                )
        if sums:
            raise SimulationError(f"spans charge unknown buckets: {sorted(sums)}")

    def tracks(self) -> list[str]:
        """Every track that recorded at least one span/instant/counter, in
        first-appearance order."""
        seen: dict[str, None] = {}
        metas = self._metas
        for row in range(self._s_n):
            seen.setdefault(metas[self._s_md[row] >> 16][0], None)
        for row in range(self._i_n):
            seen.setdefault(metas[self._i_meta[row]][0], None)
        for sample in self.counters:
            seen.setdefault(sample.track, None)
        return list(seen)

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    # ------------------------------------------------------------------
    # hooks for the wire layer
    # ------------------------------------------------------------------
    def wire_hook(self):
        """A :attr:`repro.net.link.Direction.trace_hook` recording one
        span per message: submission -> arrival at the far end.

        The hook bypasses :meth:`complete`'s keyword plumbing: wire
        tracks never nest (depth 0) and every message span carries the
        same shape, so it caches the interned meta id per direction and
        writes the columns directly — this is the highest-volume
        recording site in a traced run.
        """
        mids: dict[str, int] = {}
        args_append = self._s_args.append
        s_md, s_start, s_dur = self._s_md, self._s_start, self._s_dur

        def hook(name: str, start: float, end: float, size: int, arrival: float) -> None:
            dur = arrival - start
            if dur < 0.0:
                raise SimulationError(f"span 'msg' has negative duration {dur}")
            mid = mids.get(name)
            if mid is None:
                raw = self._meta_id((wire_track(name), "msg", None))
                self._arg_keys[raw] = "bytes"
                mid = raw << 16
                mids[name] = mid
            row = self._s_n
            if row == self._s_cap:
                self._grow_spans()
            args_append(size)
            s_md[row] = mid
            s_start[row] = start
            s_dur[row] = dur
            self._s_n = row + 1

        return hook


__all__ = [
    "CounterSample",
    "DEPUTY_TRACK",
    "Instant",
    "MIGRANT_TRACK",
    "Span",
    "SpanTracer",
    "wire_track",
]
