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

Storage is **append-grown columns**: every span appends one packed int64
``meta_id << 16 | depth`` word and its float64 start and duration to flat
``array`` columns, and every instant its meta id and time, so a column's
length is its row count and it holds no capacity beyond ``array``'s own
growth slack (about 1/16).  A recording site interns its meta ``(track,
name, bucket, keys)`` once, ``keys`` being the names of its args, so a
row's args are one entry of a side list: ``None`` (no keys), the bare
value (one key) or a tuple of values (several), turned into a dict only
when the object view materializes.  :meth:`complete` and :meth:`instant`
intern their kwargs' names on each call; the hot sites go one step
further: :meth:`span_site`, :meth:`open_span_site`, :meth:`instant_site`
and :meth:`wire_hook` hand out per-site closures with the meta
pre-interned, so recording is a handful of appends with no lookups.
Recording is not allocation-free: a multi-key row keeps its tuple of
values, and the columns reallocate as they grow.  The object views
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


def wire_track(direction_name: str) -> str:
    """Track name for one wire direction (e.g. ``wire/home->dest``)."""
    return f"wire/{direction_name}"


def _pack(args: dict):
    """A kwargs dict as a row's stored args: None, the bare value or a
    tuple of values (the names go to the row's meta)."""
    if not args:
        return None
    if len(args) == 1:
        (value,) = args.values()
        return value
    return tuple(args.values())


def _unpack(keys: tuple[str, ...], value) -> dict | None:
    """A row's args dict: its meta's ``keys`` paired with the stored value."""
    if not keys:
        return None
    if len(keys) == 1:
        return {keys[0]: value}
    return dict(zip(keys, value))


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
    once and call that.  All paths append to the same columns; read
    :attr:`spans` for the object view.
    """

    __slots__ = (
        "counters",
        "_meta_ids",
        "_metas",
        "_s_md",
        "_s_start",
        "_s_dur",
        "_s_args",
        "_i_meta",
        "_i_time",
        "_i_args",
        "_open",
        "_view",
        "_i_view",
    )

    def __init__(self) -> None:
        self.counters: list[CounterSample] = []
        # Intern table for recording-site metas (track, name, bucket,
        # keys), where ``keys`` names the site's args; instants intern
        # with bucket None through the same table.
        self._meta_ids: dict[tuple, int] = {}
        self._metas: list[tuple[str, str, str | None, tuple[str, ...]]] = []
        # Span columns, parallel by row (row order = completion order).
        # The meta id and nesting depth share one int64 word (``mid << 16
        # | depth``); depth is bounded by the open-span stacks, which
        # never come near 2**16.
        self._s_md = array("q")
        self._s_start = array("d")
        self._s_dur = array("d")
        #: Row -> stored args (None, the bare value or a tuple of values).
        self._s_args: list = []
        # Instant columns.
        self._i_meta = array("q")
        self._i_time = array("d")
        self._i_args: list = []
        # Per-track stacks of open (start, depth, begin value) records.
        self._open: dict[str, list] = {}
        # Cached materialized views, validated against the row counts
        # (appends only ever grow the columns, so a view as long as its
        # columns is current — the hot path never touches these).
        self._view: list[Span] | None = None
        self._i_view: list[Instant] | None = None

    def __len__(self) -> int:
        return len(self._s_dur)

    def _meta_id(
        self, track: str, name: str, bucket: str | None, keys: tuple[str, ...]
    ) -> int:
        meta = (track, name, bucket, keys)
        mid = self._meta_ids.get(meta)
        if mid is None:
            mid = self._meta_ids[meta] = len(self._metas)
            self._metas.append(meta)
        return mid

    def _span_appends(self):
        """The span columns' bound ``append`` methods, captured once by
        each per-site closure (the columns keep their identity for the
        tracer's lifetime)."""
        return self._s_md.append, self._s_start.append, self._s_dur.append, self._s_args.append

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
        mid = self._meta_id(track, name, bucket, tuple(args))
        stack = self._open.get(track)
        self._s_md.append(mid << 16 | (len(stack) if stack else 0))
        self._s_start.append(start)
        self._s_dur.append(dur)
        self._s_args.append(_pack(args))

    def instant(self, track: str, name: str, t: float, **args: object) -> None:
        """Record a zero-duration marker."""
        self._i_meta.append(self._meta_id(track, name, None, tuple(args)))
        self._i_time.append(t)
        self._i_args.append(_pack(args))

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        """Record one sample of a numeric time series."""
        self.counters.append(CounterSample(track, name, t, value))

    # ------------------------------------------------------------------
    # per-site recorders (the hot paths)
    # ------------------------------------------------------------------
    def span_site(self, track: str, name: str, bucket: str | None = None, arg: str | None = None):
        """A per-site recorder closure ``rec(start, dur, value=None)`` for
        any fixed-shape instrumentation site.

        The meta is interned once here, with ``arg`` as its one key when
        set; each call then appends to the columns with no lookup.  With
        ``arg`` set the span carries ``{arg: value}``; without it the span
        carries no args and ``value`` is ignored.  The executor resolves
        one recorder per budget-charge site, which is where most of a
        traced run's spans come from.
        """
        mid = self._meta_id(track, name, bucket, () if arg is None else (arg,)) << 16
        stack = self._open.setdefault(track, [])
        md_append, start_append, dur_append, args_append = self._span_appends()

        def rec(start: float, dur: float, value: object = None) -> None:
            if dur < 0.0:
                raise SimulationError(f"span {name!r} has negative duration {dur}")
            md_append(mid | len(stack))
            start_append(start)
            dur_append(dur)
            args_append(value)

        return rec

    def open_span_site(
        self, track: str, name: str, begin_key: str, end_keys: tuple[str, str, str]
    ):
        """Paired ``(begin, end)`` recorders for one enclosing span whose
        extent is only known at its end — the executor's per-fault
        wrapper.  The meta is interned once with ``begin_key`` and the
        three ``end_keys`` as its keys; ``begin(t, value)`` opens the span
        on the track's stack, and ``end(t, v1, v2, v3)`` closes the
        innermost open span, storing the begin value and the three end
        values as one tuple.

        Spans recorded on the track while one is open nest one level
        deeper.  The site must strictly pair its own begin/end (the popped
        record is assumed to be this site's).
        """
        k1, k2, k3 = end_keys
        mid = self._meta_id(track, name, None, (begin_key, k1, k2, k3)) << 16
        stack = self._open.setdefault(track, [])
        stack_append = stack.append
        stack_pop = stack.pop
        md_append, start_append, dur_append, args_append = self._span_appends()

        def begin(t: float, value: object) -> None:
            stack_append((t, len(stack), value))

        def end(t: float, v1: object, v2: object, v3: object) -> None:
            if not stack:
                raise SimulationError(f"end() without begin() on track {track!r}")
            start, depth, value = stack_pop()
            if t < start:
                raise SimulationError(
                    f"span {name!r} ends before it starts ({t} < {start})"
                )
            md_append(mid | depth)
            start_append(start)
            dur_append(t - start)
            args_append((value, v1, v2, v3))

        return begin, end

    def instant_site(self, track: str, name: str, k1: str, k2: str | None = None):
        """Per-site instant recorder with one or two fixed arg keys.

        ``rec(t, v1)`` (or ``rec(t, v1, v2)``) records the marker with
        ``{k1: v1}`` (or ``{k1: v1, k2: v2}``); the keys are interned with
        the meta and the values stored bare (or as one pair).
        """
        mid = self._meta_id(track, name, None, (k1,) if k2 is None else (k1, k2))
        meta_append = self._i_meta.append
        time_append = self._i_time.append
        args_append = self._i_args.append
        if k2 is None:

            def rec(t: float, v1: object) -> None:
                meta_append(mid)
                time_append(t)
                args_append(v1)

        else:

            def rec(t: float, v1: object, v2: object) -> None:
                meta_append(mid)
                time_append(t)
                args_append((v1, v2))

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
        if view is None or len(view) != len(self._s_dur):
            metas = self._metas
            view = []
            for md, start, dur, value in zip(self._s_md, self._s_start, self._s_dur, self._s_args):
                track, name, bucket, keys = metas[md >> 16]
                view.append(
                    Span(track, name, start, dur, bucket, md & 0xFFFF, _unpack(keys, value))
                )
            self._view = view
        return view

    @property
    def instants(self) -> list[Instant]:
        """Materialized object view of the instant columns, in recording
        order (lazily built and cached, like :attr:`spans`)."""
        view = self._i_view
        if view is None or len(view) != len(self._i_time):
            metas = self._metas
            view = []
            for mid, t, value in zip(self._i_meta, self._i_time, self._i_args):
                track, name, _, keys = metas[mid]
                view.append(Instant(track, name, t, _unpack(keys, value)))
            self._i_view = view
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
        for md, dur in zip(self._s_md, self._s_dur):
            bucket = metas[md >> 16][2]
            if bucket is not None:
                sums[bucket] = sums.get(bucket, 0.0) + dur
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
        for md in self._s_md:
            seen.setdefault(metas[md >> 16][0], None)
        for mid in self._i_meta:
            seen.setdefault(metas[mid][0], None)
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
        tracks never nest (depth 0) and every message span carries one
        ``bytes`` arg, so it caches the interned meta id per direction and
        appends to the columns directly — this is the highest-volume
        recording site in a traced run.
        """
        mids: dict[str, int] = {}
        md_append, start_append, dur_append, args_append = self._span_appends()

        def hook(name: str, start: float, end: float, size: int, arrival: float) -> None:
            dur = arrival - start
            if dur < 0.0:
                raise SimulationError(f"span 'msg' has negative duration {dur}")
            mid = mids.get(name)
            if mid is None:
                mid = mids[name] = (
                    self._meta_id(wire_track(name), "msg", None, ("bytes",)) << 16
                )
            md_append(mid)
            start_append(start)
            dur_append(dur)
            args_append(size)

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
