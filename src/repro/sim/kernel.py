"""The discrete-event simulator: clock, scheduling, and the run loop.

The run loop is the innermost loop of every experiment — one iteration per
simulated event — so it is written against the heap's raw ``(time, seq,
event)`` tuples with hoisted method lookups, and the observer dispatch is
skipped entirely while no observer is registered (the common case; only
``REPRO_CHECKS=1`` runs attach one).  ``step()`` keeps the readable
one-event-at-a-time form for tests and interactive use; both paths fire
events in the identical deterministic order.

*Inline advances.*  A process that is about to wait ``dt`` may call
:meth:`Simulator.try_advance` first.  When its wake-up at ``now + dt``
would be the very next event anyway — every heap entry is strictly later
and the run loop's ``until`` bound and ``max_events`` budget allow it —
the clock moves forward in place and the process carries on without a
heap round trip.  The observers are called exactly as the fired wake-up
would have called them, and the advance counts toward ``max_events``, so
event times, order, observer calls and budgets are the same on both
paths.  Outside a run loop ``try_advance`` always refuses, so ``step()``
still fires one event per call.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Generator

from ..errors import SimulationError
from .events import Event, EventQueue

_INF = float("inf")
_NEG_INF = -_INF

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .process import SimProcess


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator advances a floating-point clock (seconds) through an event
    heap.  Work is expressed either as plain callbacks (:meth:`schedule`,
    :meth:`schedule_at`) or as generator-based cooperative processes
    (:meth:`spawn`, see :mod:`repro.sim.process`).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [2.5]
    """

    __slots__ = (
        "_now", "_queue", "_running", "_closed", "_observers", "_horizon", "_budget",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._closed = False
        #: Pure observers invoked after every fired event (and every inline
        #: advance) with the clock at that point.  Observers must not
        #: schedule or mutate model state; the repro.check invariant
        #: checker uses this to audit clock monotonicity and to count
        #: events.  Kept empty on default runs so the run loop can take the
        #: no-observer fast branch.
        self._observers: list[Callable[[float], None]] = []
        #: Latest time an inline advance may reach: the active loop's
        #: ``until`` bound, ``inf`` without one, ``-inf`` outside a loop.
        self._horizon = _NEG_INF
        #: Events (fired or advanced inline) the active loop may still
        #: count before ``max_events`` trips; ``inf`` when unbounded.
        self._budget: float = 0

    def add_observer(self, observer: Callable[[float], None]) -> None:
        """Register a read-only hook called after each event fires and at
        each inline advance (see :meth:`try_advance`)."""
        self._observers.append(observer)

    def remove_observer(self, observer: Callable[[float], None]) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._queue)

    def close(self) -> None:
        """Drop every pending event and observer; the clock stays readable.

        The owner of a run calls this once the run is over.  Pending
        wake-ups and observers are what tie a simulator to the processes
        and samplers that refer back to it, so after ``close()`` a finished
        run is freed by reference counting alone, and a suspended process
        that nothing else holds has its generator finalized here.  Running
        or stepping a closed simulator raises :class:`SimulationError`;
        closing it again does nothing.
        """
        if self._running:
            raise SimulationError("cannot close a simulator inside its run loop")
        self._closed = True
        self._queue._heap.clear()
        self._observers.clear()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule into the past (time={time}, now={self._now})")
        return self._queue.push(time, callback)

    def spawn(
        self,
        generator: Generator,
        name: str = "process",
    ) -> "SimProcess":
        """Start a cooperative process from a generator.

        The generator may ``yield`` :class:`repro.sim.process.Timeout` or
        :class:`repro.sim.process.Completion` instances; the kernel resumes
        it when the awaited condition is satisfied.  The kernel holds no
        reference to the process once spawned — finished processes are
        reclaimed by ordinary garbage collection instead of accumulating
        for the lifetime of the simulator.
        """
        from .process import SimProcess

        proc = SimProcess(self, generator, name=name)
        proc._start()
        return proc

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the earliest event.  Returns ``False`` if none remained."""
        if self._closed:
            raise SimulationError("simulator is closed")
        time = self._queue.peek_time()
        if time is None:
            return False
        payload = self._queue.pop()
        if time < self._now:
            raise SimulationError("event heap yielded an event from the past")
        self._now = time
        if payload.__class__ is Event:
            payload.callback()
        else:
            payload()
        if self._observers:
            for observer in self._observers:
                observer(time)
        return True

    def try_advance(self, delay: float) -> bool:
        """Advance the clock by ``delay`` in place if nothing else is due.

        The caller is a process about to wait ``delay`` seconds.  When its
        wake-up would be the next event anyway, the clock moves to
        ``now + delay`` (the same float sum a ``Timeout`` wake-up is
        scheduled at), the observers are called with the pre-advance clock
        exactly as the fired wake-up would have called them, one event is
        counted toward ``max_events``, and ``True`` is returned: the caller
        carries on without yielding.  Otherwise nothing changes and the
        caller yields its ``Timeout`` as usual.

        Refuses outside a run loop, past the loop's ``until`` bound, once
        the ``max_events`` budget is spent, and whenever the earliest heap
        entry — cancelled or not — is due at or before ``now + delay``: on
        a tie that entry holds the smaller ``seq`` and fires first.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"advance delay must be finite and non-negative, got {delay}"
            )
        t = self._now + delay
        if t > self._horizon or self._budget <= 0:
            return False
        heap = self._queue._heap
        if heap and heap[0][0] <= t:
            return False
        if self._observers:
            for observer in self._observers:
                observer(self._now)
        self._now = t
        self._budget -= 1
        return True

    def _enter_loop(self, until: float | None, max_events: int | None) -> None:
        """Claim the simulator for one run loop; nesting loops is an error
        because the inline-advance bound and budget belong to one loop."""
        if self._running:
            raise SimulationError("simulator is already running (nested run loop)")
        if self._closed:
            raise SimulationError("simulator is closed")
        self._running = True
        self._horizon = _INF if until is None else until
        self._budget = _INF if max_events is None else max_events

    def _exit_loop(self) -> None:
        self._running = False
        self._horizon = _NEG_INF
        self._budget = 0

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time; the clock is advanced to it
        even if the last event fires earlier, mirroring SimPy semantics.
        ``max_events`` is a safety valve for tests; it counts fired events
        and inline advances alike.
        """
        self._enter_loop(until, max_events)
        heap = self._queue._heap
        heappop = heapq.heappop
        observers = self._observers
        try:
            while heap:
                time, _seq, payload = heap[0]
                is_event = payload.__class__ is Event
                if is_event and payload.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                if self._budget <= 0:
                    raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
                heappop(heap)
                if time < self._now:
                    raise SimulationError("event heap yielded an event from the past")
                self._now = time
                # Counted before the callback runs: inline advances made
                # inside it must see the budget this event already used.
                self._budget -= 1
                if is_event:
                    payload.callback()
                else:
                    payload()
                if observers:
                    now = self._now
                    for observer in observers:
                        observer(now)
        finally:
            self._exit_loop()
        if until is not None and self._now < until:
            self._now = until

    def run_until_complete(self, proc: "SimProcess", max_events: int | None = None) -> object:
        """Run events until ``proc`` finishes; return its result value.

        Raises :class:`SimulationError` if the heap drains with the process
        still alive (a deadlock in the modelled system), and the process's
        own error if it failed (taken off the process, see
        :meth:`SimProcess.take_error`).  ``max_events`` counts fired events
        and inline advances alike.
        """
        self._enter_loop(None, max_events)
        heap = self._queue._heap
        heappop = heapq.heappop
        observers = self._observers
        try:
            while not proc.finished:
                if self._budget <= 0:
                    raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
                while heap:
                    time, _seq, payload = heap[0]
                    is_event = payload.__class__ is Event
                    if is_event and payload.cancelled:
                        heappop(heap)
                        continue
                    break
                else:
                    raise SimulationError(
                        f"event queue drained but process {proc.name!r} never finished (deadlock)"
                    )
                heappop(heap)
                if time < self._now:
                    raise SimulationError("event heap yielded an event from the past")
                self._now = time
                self._budget -= 1
                if is_event:
                    payload.callback()
                else:
                    payload()
                if observers:
                    now = self._now
                    for observer in observers:
                        observer(now)
        finally:
            self._exit_loop()
        if proc.error is not None:
            raise proc.take_error()
        return proc.result
