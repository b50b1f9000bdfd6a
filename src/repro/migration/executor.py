"""The migrant executor: runs a workload trace after migration.

The executor is a cooperative DES process that walks the workload's page
reference stream.  References to mapped pages accumulate CPU work at array
speed; a reference to any other page takes the fault path of Algorithm 1:

1. copy every prefetched page that has arrived into the address space;
2. record the fault in the policy's lookback window and run the
   dependent-zone analysis (charged as ``analysis`` time — figure 11);
3. send the paging request (demand page + prefetch list) to the page
   service; a demand request is figure 7's "page fault request";
4. block until the demanded page arrives (a page already on the wire only
   costs the residual delay — section 5.4's pipelining effect).

Every simulated second is attributed to exactly one
:class:`repro.metrics.timeline.TimeBudget` bucket; the integration tests
assert the identity ``wall == freeze + compute + stall + analysis + copy +
syscall``.

Each wait first offers :meth:`repro.sim.Simulator.try_advance` its delay
and yields a ``Timeout`` only when that refuses: while nothing else is due
before the migrant's own wake-up, it runs ahead of the event heap with
identical event times, order and observer calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import HardwareSpec, RetrySpec
from ..errors import MigrationError
from ..faults.log import FaultEventKind, FaultInjectionLog
from ..mem.fault import FaultKind
from ..mem.lru import LruPageCache
from ..metrics.counters import Counters
from ..metrics.eventlog import FaultLog
from ..metrics.timeline import TimeBudget
from ..node.infod import InfoDaemon
from ..node.node import Node
from ..obs.spans import MIGRANT_TRACK
from ..sim import SimProcess, Simulator, Timeout
from ..workloads.base import Syscall, TraceChunk, Workload
from .base import MigrationOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..check.invariants import InvariantChecker
    from ..obs import Observability


@dataclass(slots=True)
class ExecutionResult:
    """Everything measured about one migrated execution."""

    strategy: str
    workload: str
    memory_bytes: int
    freeze_time: float
    #: Wall time from resume to completion (excludes the freeze).
    run_time: float
    budget: TimeBudget
    counters: Counters
    #: Pages fetched from remote but never referenced (excess prefetching,
    #: the quantity section 5.6 argues AMPoM keeps small).
    wasted_pages: int = 0
    extra: dict[str, float] = field(default_factory=dict)
    #: Name of the prefetch policy this run resolved ("" when the scheme
    #: performs no remote paging, e.g. openMosix).
    prefetch_policy: str = ""

    @property
    def total_time(self) -> float:
        """Figure 6's quantity: freeze + post-migration execution."""
        return self.freeze_time + self.run_time

    def to_dict(self) -> dict:
        """JSON-serializable summary (used by the CLI's ``--json``).

        ``counters`` includes the reliability fields introduced by the
        fault-injection subsystem — ``retransmits``, ``request_timeouts``,
        ``prefetch_writeoffs`` (pages wasted to a deputy crash),
        ``deputy_crash_detections``, ``duplicate_pages_deduped``,
        ``pages_replayed``, and the wire-level ``messages_dropped`` /
        ``messages_duplicated`` / ``messages_delayed``.  All of them are
        zero on a fault-free run (see docs/FAULTS.md).
        """
        return {
            "strategy": self.strategy,
            "workload": self.workload,
            "prefetch_policy": self.prefetch_policy,
            "memory_bytes": self.memory_bytes,
            "freeze_time_s": self.freeze_time,
            "run_time_s": self.run_time,
            "total_time_s": self.total_time,
            "wasted_pages": self.wasted_pages,
            "budget": self.budget.as_dict(),
            "counters": self.counters.as_dict(),
            "extra": dict(self.extra),
        }


@dataclass(slots=True)
class ExecutorCarry:
    """Execution state handed from one leg of a multi-hop migration to the
    next (see :class:`repro.cluster.session.ScenarioRuntime`).

    The trace iterator, the time budget, and the counters are *shared*
    objects: the continuation executor keeps charging the same budget and
    resumes the trace exactly where the preempted leg stopped, so the
    final :class:`ExecutionResult` accounts for the whole journey.
    """

    trace: object
    budget: TimeBudget
    counters: Counters
    #: Bitmap of referenced pages, indexed by page number.
    touched: np.ndarray
    fetched: set
    window_wraps_seen: int


class MigrantExecutor:
    """Drives one workload trace through a migration outcome."""

    def __init__(
        self,
        sim: Simulator,
        workload: Workload,
        outcome: MigrationOutcome,
        node: Node,
        hardware: HardwareSpec,
        infod: InfoDaemon | None = None,
        track_touched: bool = True,
        capacity_pages: int | None = None,
        fault_log: FaultLog | None = None,
        retry: RetrySpec | None = None,
        retry_rng: np.random.Generator | None = None,
        injection_log: FaultInjectionLog | None = None,
        checker: "InvariantChecker | None" = None,
        obs: "Observability | None" = None,
        preempt_at: float | None = None,
        carry: ExecutorCarry | None = None,
        run_time_base: float = 0.0,
    ) -> None:
        self.sim = sim
        self.workload = workload
        self.outcome = outcome
        self.node = node
        self.hardware = hardware
        self.infod = infod
        self.track_touched = track_touched
        self.fault_log = fault_log
        self.injection_log = injection_log
        #: Optional repro.check invariant checker (pure observer); set by
        #: the runner when SimulationConfig.checks.enabled is true.
        self.checker = checker
        #: Optional repro.obs bundle (pure observers).  The tracer records
        #: one span per TimeBudget charge with the *identical* float
        #: duration at the identical code site, so per-bucket span sums
        #: reproduce the budget bit for bit (see docs/OBSERVABILITY.md).
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        self._obs_metrics = obs.metrics if obs is not None else None
        # Per-site span recorders: each budget-charge site interns its
        # (track, name, bucket) triple once and writes the tracer's ring
        # columns directly on every fault (see SpanTracer.span_site).
        tr = self._tracer
        if tr is not None:
            self._rec_compute = tr.span_site(MIGRANT_TRACK, "compute", "compute")
            self._rec_analysis = tr.span_site(MIGRANT_TRACK, "analysis", "analysis")
            self._rec_stall = tr.span_site(MIGRANT_TRACK, "stall", "stall", arg="vpn")
            self._rec_copy = tr.span_site(MIGRANT_TRACK, "copy", "copy", arg="pages")
            self._rec_fault_begin, self._rec_fault_end = tr.open_span_site(
                MIGRANT_TRACK, "fault", end_keys=("kind", "prefetch", "stall")
            )
            self._rec_demand_req = tr.instant_site(
                MIGRANT_TRACK, "demand_request", "vpn", "prefetch"
            )
            self._rec_prefetch_req = tr.instant_site(
                MIGRANT_TRACK, "prefetch_request", "pages"
            )
        else:
            self._rec_compute = None
            self._rec_analysis = None
            self._rec_stall = None
            self._rec_copy = None
            self._rec_fault_begin = None
            self._rec_fault_end = None
            self._rec_demand_req = None
            self._rec_prefetch_req = None
        # Histogram handles, resolved lazily on first observation so the
        # registry only ever contains histograms that actually recorded
        # (the per-fault path then skips the by-name lookup).
        self._h_stall = None
        self._h_prefetch = None
        self._h_zone = None
        self._h_locality = None

        # Reliable-protocol state.  ``retry`` arms a retransmission timer
        # on every demand request whose reply may be lost; it is only set
        # when a fault plan is active, so the fault-free path is untouched.
        self.retry = retry
        self._retry_rng = retry_rng
        self._reliable = retry is not None
        if self._reliable and not hasattr(outcome.page_service, "next_seq"):
            raise MigrationError(
                "fault injection requires a page service that supports "
                "sequence IDs (a deputy-backed scheme, not FFA)"
            )
        #: True while the migrant believes the deputy is down: prefetching
        #: is suppressed (demand-only paging) until a reply gets through.
        self._degraded = False
        self._await_stall = 0.0

        #: Optional whole-node hazard check ``f(now) -> None`` wired by the
        #: scenario runtime under a NodeFaultPlan.  Called between trace
        #: events; raises :class:`repro.errors.ProcessLostError` if a crash
        #: killed this process (its own node died mid-run, or its home node
        #: crashed — openMosix's home dependency).
        self.hazard = None
        #: Optional callback fired when the retry protocol concludes a
        #: remote server is dead (two consecutive demand timeouts).  The
        #: scenario runtime uses it to kill home-dependent processes and to
        #: chain-repair routes through dead transit deputies.
        self.on_crash_detect = None
        #: FaultKind of the fault currently being resolved, if a yield
        #: inside :meth:`_fault` is pending — lets the kill teardown tell
        #: the checker about a counted-but-unresolved fault.
        self._pending_fault = None

        #: Simulated time at which this leg yields the CPU for the next
        #: re-migration hop (``None`` = run the trace to completion).
        self.preempt_at = preempt_at
        #: True when the leg stopped at ``preempt_at`` with trace left.
        self.preempted = False
        self.run_time_base = run_time_base

        if carry is None:
            self.budget = TimeBudget()
            self.budget.freeze = outcome.freeze_time
            self.counters = Counters()
            self.counters.pages_migrated = outcome.pages_shipped
            self._trace = None
            # One flag per page, set for every referenced page.  Sized to
            # the address space; a trace that names a larger page grows it.
            self._touched = np.zeros(workload.address_space.total_pages, dtype=bool)
            self._fetched: set[int] = set()
            self._window_wraps_seen = 0
        else:
            # Continuation leg: keep charging the shared budget/counters and
            # resume the trace where the previous leg was preempted.  The
            # freeze bucket accumulates every hop's freeze.
            self.budget = carry.budget
            self.budget.freeze += outcome.freeze_time
            self.counters = carry.counters
            self.counters.pages_migrated += outcome.pages_shipped
            self._trace = carry.trace
            self._touched = carry.touched
            self._fetched = carry.fetched
            self._window_wraps_seen = carry.window_wraps_seen
        self.result: ExecutionResult | None = None

        self._last_fault_time = 0.0
        self._compute_since_fault = 0.0
        self._holds_cpu = False

        # Per-fault policy metadata and hot-path aliases, resolved once
        # (the outcome's fields and the policy never change during a run).
        policy = outcome.policy
        self._policy_needs_conditions = (
            getattr(policy, "needs_conditions", True) if policy is not None else False
        )
        self._policy_window = getattr(policy, "window", None)
        self._policy_traces = hasattr(policy, "last_trace")
        self._policy = policy
        self._analysis_time = policy.analysis_time if policy is not None else 0.0
        self._res = outcome.residency
        self._mpt = outcome.mpt
        self._service = outcome.page_service
        self._cpu = node.cpu

        # Optional destination-memory pressure model (the paper ignores
        # memory pressure; see DESIGN.md section 6).  Evicted pages are
        # written back to the origin node and can be re-fetched.
        self._lru: LruPageCache | None = None
        if capacity_pages is not None:
            self._lru = LruPageCache(capacity_pages)
            for vpn in sorted(outcome.residency.mapped):
                self._insert_resident(vpn)

    # ------------------------------------------------------------------
    def start(self) -> SimProcess:
        """Spawn the executor in the simulator; the process's result is an
        :class:`ExecutionResult`."""
        return self.sim.spawn(self._run(), name=f"migrant-{self.workload.name}")

    def carry_out(self) -> ExecutorCarry:
        """Package the preempted leg's state for the next hop's executor."""
        if not self.preempted:
            raise MigrationError("carry_out() is only valid after a preempted leg")
        return ExecutorCarry(
            trace=self._trace,
            budget=self.budget,
            counters=self.counters,
            touched=self._touched,
            fetched=self._fetched,
            window_wraps_seen=self._window_wraps_seen,
        )

    def _mark_touched(self, pages: np.ndarray) -> None:
        try:
            self._touched[pages] = True
        except IndexError:
            grown = np.zeros(max(2 * self._touched.size, int(pages.max()) + 1), dtype=bool)
            grown[: self._touched.size] = self._touched
            grown[pages] = True
            self._touched = grown

    def wasted_pages(self) -> int:
        """Pages fetched from remote but never referenced: the size of
        ``fetched - touched`` (0 when touched pages are not tracked)."""
        if not self.track_touched:
            return 0
        fetched = np.fromiter(self._fetched, dtype=np.int64, count=len(self._fetched))
        touched = self._touched
        referenced = touched[fetched[fetched < touched.size]]
        return int(fetched.size - np.count_nonzero(referenced))

    def discard_fetch(self, vpn: int) -> None:
        """Forget a fetched-but-written-off page (keeps the wasted-page
        accounting consistent when the runtime writes off lost prefetches
        at a re-migration boundary)."""
        self._fetched.discard(vpn)

    # ------------------------------------------------------------------
    # conditions for the prefetcher when no monitoring daemon is attached
    # ------------------------------------------------------------------
    def _static_conditions(self):
        from ..core.policy import LinkConditions

        service = self.outcome.page_service
        reply = getattr(service, "reply_channel", None)
        request = getattr(service, "request_channel", None)
        if reply is None or request is None:
            deputy = getattr(service, "deputy", None)
            reply = deputy.reply_channel if deputy is not None else None
        if reply is None or request is None:
            raise MigrationError(
                "prefetching needs either an InfoDaemon or a deputy-backed page service"
            )
        rtt = reply.latency_s + request.latency_s
        return LinkConditions(
            rtt_s=rtt,
            available_bw_bps=reply.bandwidth_bps,
            cpu_share=self.node.cpu.share(),
        )

    def _conditions(self):
        if self.infod is not None:
            return self.infod.conditions()
        return self._static_conditions()

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def _run(self):
        sim = self.sim
        res = self.outcome.residency
        mapped = res.mapped  # direct reference: the hot-path set
        cpu = self.node.cpu
        budget = self.budget
        tr = self._tracer
        # Traced-only clock reads below use ``sim._now`` directly: ``now``
        # is a trivial property over that attribute, and skipping the
        # property call keeps tracing overhead off the untraced path.
        rec_compute = self._rec_compute
        creates = self.workload.creates_pages
        start_time = sim.now
        self._last_fault_time = start_time
        preempt_at = self.preempt_at
        if self._trace is None:
            self._trace = iter(self.workload.trace())
        self._acquire_cpu()
        try:
            for event in self._trace:
                if isinstance(event, Syscall):
                    yield from self._syscall(event)
                else:
                    chunk: TraceChunk = event
                    if self.track_touched:
                        self._mark_touched(chunk.pages)
                    # Fast path: everything the trace can touch is mapped (not
                    # available under the memory-pressure model, which must see
                    # every reference to keep LRU recency).
                    if (
                        self._lru is None
                        and not creates
                        and not res.remote_set
                        and not res.in_flight_map
                        and not res.buffered_set
                    ):
                        yield from self._compute(chunk.total_compute)
                    else:
                        acc = 0.0
                        lru = self._lru
                        for vpn, work in zip(chunk.pages.tolist(), chunk.compute.tolist()):
                            if vpn in mapped:
                                if lru is not None:
                                    lru.touch(vpn)
                                acc += work
                                continue
                            if acc > 0.0:
                                # _compute, inlined: the fault path runs it before
                                # and after every fault, so the generator hop is
                                # worth spelling out.
                                wall = acc * cpu.stretch()
                                t0 = sim._now if tr is not None else 0.0
                                if not sim.try_advance(wall):
                                    yield Timeout(wall)
                                budget.compute += wall
                                if rec_compute is not None:
                                    rec_compute(t0, wall)
                                cpu.charge(acc)
                                self._compute_since_fault += acc
                                acc = 0.0
                            yield from self._fault(vpn)
                            acc += work
                        if acc > 0.0:
                            wall = acc * cpu.stretch()
                            t0 = sim._now if tr is not None else 0.0
                            if not sim.try_advance(wall):
                                yield Timeout(wall)
                            budget.compute += wall
                            if rec_compute is not None:
                                rec_compute(t0, wall)
                            cpu.charge(acc)
                            self._compute_since_fault += acc
                # Whole-node crash check, same granularity as preemption:
                # a kill lands at the next trace-event boundary.
                if self.hazard is not None:
                    self.hazard(sim.now)
                # Re-migration point: the runtime asked this leg to stop once
                # the simulated clock passes preempt_at.  Checked between
                # trace events only — a hop never tears a chunk apart.
                if preempt_at is not None and sim.now >= preempt_at:
                    self.preempted = True
                    break
        finally:
            self._release_cpu()
        if self.preempted:
            return None
        run_time = self.run_time_base + (sim.now - start_time)
        self._collect_fault_stats()
        self.result = ExecutionResult(
            strategy=self.outcome.strategy,
            workload=self.workload.name,
            memory_bytes=self.workload.memory_bytes,
            freeze_time=self.budget.freeze,
            run_time=run_time,
            budget=self.budget,
            counters=self.counters,
            wasted_pages=self.wasted_pages(),
            extra=dict(self.outcome.extra),
            prefetch_policy=getattr(self.outcome.policy, "name", "") or "",
        )
        return self.result

    # ------------------------------------------------------------------
    # memory-pressure model
    # ------------------------------------------------------------------
    def _insert_resident(self, vpn: int) -> None:
        """Register a newly mapped page with the LRU; evict if over capacity.

        An evicted page is written back to the home node (it is dirty —
        every page of these workloads is) and both page tables are updated
        per section 2.2: the MPT entry flips to HOME and the HPT stores the
        copy again, so a later touch re-fetches it.
        """
        assert self._lru is not None
        victim = self._lru.insert(vpn)
        if victim is None:
            return
        res = self.outcome.residency
        res.unmap(victim)
        self.outcome.mpt.mark_home(victim)
        service = self.outcome.page_service
        self.counters.pages_evicted += 1
        writeback = getattr(service, "request_channel", None)
        arrival = self.sim.now
        if writeback is not None:
            # Write-behind: occupies the uplink but does not stall us.
            arrival = writeback.transfer_page(self.hardware.page_size, self.sim.now)
        if hasattr(service, "store_writeback"):
            # FFA: the file server, not the home node, is the backing
            # store; the page is requestable once the write-back lands.
            service.store_writeback(victim, arrival)
        else:
            self.outcome.hpt.store(victim)

    # ------------------------------------------------------------------
    def _acquire_cpu(self) -> None:
        if not self._holds_cpu:
            self.node.cpu.acquire()
            self._holds_cpu = True

    def _release_cpu(self) -> None:
        if self._holds_cpu:
            self.node.cpu.release()
            self._holds_cpu = False

    # ------------------------------------------------------------------
    def _compute(self, cpu_work: float):
        """Consume ``cpu_work`` seconds of CPU under the current load."""
        wall = cpu_work * self.node.cpu.stretch()
        rec = self._rec_compute
        t0 = self.sim._now if rec is not None else 0.0
        if not self.sim.try_advance(wall):
            yield Timeout(wall)
        self.budget.compute += wall
        if rec is not None:
            rec(t0, wall)
        self.node.cpu.charge(cpu_work)
        self._compute_since_fault += cpu_work

    def _copy_buffered(self, res):
        """Map every buffered page; charge the copy cost."""
        copied = res.map_buffered()
        if not copied:
            return
        mpt = self._mpt
        for vpn in copied:
            mpt.mark_local(vpn)
            if self._lru is not None:
                self._insert_resident(vpn)
        self.counters.pages_copied += len(copied)
        wall = len(copied) * self.hardware.page_copy_time * self._cpu.stretch()
        rec = self._rec_copy
        t0 = self.sim._now if rec is not None else 0.0
        if not self.sim.try_advance(wall):
            yield Timeout(wall)
        self.budget.copy += wall
        if rec is not None:
            rec(t0, wall, len(copied))

    def _fault(self, vpn: int):
        sim = self.sim
        res = self._res
        cpu = self._cpu
        now = sim.now
        tr = self._tracer
        if tr is not None:
            self._rec_fault_begin(now, "vpn", vpn)

        # C_i: CPU share consumed since the previous fault.
        elapsed = now - self._last_fault_time
        if elapsed > 1e-12:
            cpu_sample = min(self._compute_since_fault / elapsed, 1.0)
        else:
            cpu_sample = cpu.share()

        # Step 1 of Algorithm 1: copy arrived prefetched pages in.  The
        # copy generator is only entered when something is buffered — an
        # empty copy yields nothing, so skipping it is event-identical —
        # and arrivals can only be absorbed when something is in flight
        # (stale heap entries drain lazily on the next live absorb).
        if res.in_flight_map:
            res.absorb_arrivals(now)
            if res.buffered_set:
                yield from self._copy_buffered(res)
        elif res.buffered_set:
            yield from self._copy_buffered(res)

        # Classify the fault.  The counter is bumped at onset but the
        # checker only hears about the fault once it resolves; a node
        # crash can kill the process in between, so the in-progress kind
        # is published for the teardown path to reconcile.
        counters = self.counters
        if vpn in res.mapped:
            kind = FaultKind.MINOR_BUFFERED
            counters.minor_buffered_faults += 1
        elif vpn in res.in_flight_map:
            kind = FaultKind.IN_FLIGHT_WAIT
            counters.inflight_waits += 1
        elif vpn in res.remote_set:
            kind = FaultKind.MAJOR
            counters.major_faults += 1
        else:
            kind = FaultKind.MINOR_CREATE
            counters.create_faults += 1
        self._pending_fault = kind

        # Steps 2-4: record, analyse, decide the prefetch set.  A policy
        # that never reads the link snapshot (demand paging, fixed
        # read-ahead) spares the oM_infoD sampling call entirely.
        policy = self._policy
        prefetch: list[int] = []
        if policy is not None:
            conditions = self._conditions() if self._policy_needs_conditions else None
            prefetch = policy.on_fault(vpn, sim.now, cpu_sample, res, conditions)
            if self._degraded:
                # Deputy believed down: demand-only paging until a reply
                # gets through again (the zone quota the policy spent on
                # these pages is returned — they stay REMOTE).
                prefetch = []
            analysis_time = self._analysis_time
            if analysis_time > 0.0:
                wall = analysis_time * cpu.stretch()
                t0 = sim._now if tr is not None else 0.0
                if not sim.try_advance(wall):
                    yield Timeout(wall)
                self.budget.analysis += wall
                if tr is not None:
                    self._rec_analysis(t0, wall)
                cpu.charge(analysis_time)
            window = self._policy_window
            if (
                window is not None
                and self.infod is not None
                and window.wraps > self._window_wraps_seen
            ):
                self._window_wraps_seen = window.wraps
                self.infod.on_window_wrap()

        # No yields between here and the stall computation, so sim.now is
        # pinned for the rest of the request/resolve steps.
        t_req = sim.now
        self._last_fault_time = t_req
        self._compute_since_fault = 0.0

        # Step 5: send the paging request.
        service = self._service
        demand_seq: int | None = None
        demand_arrival = -1.0
        if kind is FaultKind.MAJOR:
            counters.demand_requests += 1
            counters.pages_demand_fetched += 1
            counters.pages_prefetched += len(prefetch)
            if tr is not None:
                self._rec_demand_req(t_req, vpn, len(prefetch))
            if self.checker is not None:
                self.checker.on_request([vpn], prefetch)
            if self._reliable:
                demand_seq = service.next_seq()
                arrivals = service.request([vpn], prefetch, t_req, seq=demand_seq)
                self._register_fetches(arrivals)
            else:
                arrivals = service.request([vpn], prefetch, t_req)
                fetched = self._fetched
                for page, t in arrivals.items():
                    res.start_fetch(page, t)
                    fetched.add(page)
                # The demanded page's arrival is already in hand; no yields
                # occur before the stall computation reads it.
                demand_arrival = arrivals[vpn]
        elif prefetch:
            counters.prefetch_requests += 1
            counters.pages_prefetched += len(prefetch)
            if tr is not None:
                self._rec_prefetch_req(t_req, len(prefetch))
            if self.checker is not None:
                self.checker.on_request([], prefetch)
            if self._reliable:
                arrivals = service.request([], prefetch, t_req, seq=service.next_seq())
                self._register_fetches(arrivals)
            else:
                arrivals = service.request([], prefetch, t_req)
                fetched = self._fetched
                for page, t in arrivals.items():
                    res.start_fetch(page, t)
                    fetched.add(page)

        # Step 6: resolve the faulting page.
        stall = 0.0
        if kind is FaultKind.MINOR_CREATE:
            res.map_created(vpn)
            self._mpt.record_creation(vpn)
            if self._lru is not None:
                self._insert_resident(vpn)
        elif kind in (FaultKind.MAJOR, FaultKind.IN_FLIGHT_WAIT):
            if self._reliable:
                yield from self._await_page(vpn, demand_seq)
                stall = self._await_stall
            else:
                arrival = demand_arrival if demand_arrival >= 0.0 else res.arrival_time(vpn)
                stall = arrival - t_req
                if stall < 0.0:
                    stall = 0.0
                if stall > 0.0:
                    self._release_cpu()
                    t0 = sim._now if tr is not None else 0.0
                    if not sim.try_advance(stall):
                        yield Timeout(stall)
                    self._acquire_cpu()
                    self.budget.stall += stall
                    if tr is not None:
                        self._rec_stall(t0, stall, vpn)
                res.absorb_arrivals(sim.now)
                if res.buffered_set:
                    yield from self._copy_buffered(res)
        self._pending_fault = None
        if self.fault_log is not None:
            self.fault_log.record(now, vpn, kind, len(prefetch), stall)
        if self.checker is not None:
            self.checker.on_fault(kind, vpn)
        if tr is not None:
            self._rec_fault_end(sim._now, kind.name, len(prefetch), stall)
        metrics = self._obs_metrics
        if metrics is not None:
            if kind in (FaultKind.MAJOR, FaultKind.IN_FLIGHT_WAIT):
                h = self._h_stall
                if h is None:
                    h = self._h_stall = metrics.histogram("stall_s")
                h.observe(stall)
            if self._policy is not None:
                h = self._h_prefetch
                if h is None:
                    h = self._h_prefetch = metrics.histogram(
                        "prefetch_request_pages"
                    )
                h.observe(float(len(prefetch)))
                last = self._policy.last_trace if self._policy_traces else None
                if last is not None:
                    h = self._h_zone
                    if h is None:
                        h = self._h_zone = metrics.histogram("zone_size_pages")
                        self._h_locality = metrics.histogram("locality_score")
                    h.observe(float(last.zone_size))
                    self._h_locality.observe(last.score)

    # ------------------------------------------------------------------
    # the reliable remote-paging protocol (fault-injection runs only)
    # ------------------------------------------------------------------
    def _log_event(self, kind: FaultEventKind, detail: str = "") -> None:
        if self.injection_log is not None:
            self.injection_log.record(self.sim.now, kind, channel="migrant", detail=detail)

    def _register_fetches(self, arrivals: dict[int, float]) -> None:
        """Fold a (possibly retransmitted/replayed) response's arrival
        times into the residency tracker.  An ``inf`` arrival means the
        request or reply was lost — the page is pending with no arrival in
        sight until a retransmission improves it."""
        res = self.outcome.residency
        for page, t in arrivals.items():
            if page in res.mapped or page in res.buffered:
                continue  # a replayed copy of a page we already have
            if page in res.in_flight:
                res.update_arrival(page, t)
            elif res.is_remote(page):
                res.start_fetch(page, t)
                self._fetched.add(page)

    def _await_page(self, vpn: int, seq: int | None):
        """Block until ``vpn`` is mapped, retransmitting on timeout.

        Arms ``RetrySpec.timeout_for(attempt)`` whenever the page has no
        finite arrival time (its request or reply was lost); each expiry
        retransmits a demand-only request with the same sequence ID so the
        deputy can recognise the duplicate.  Two consecutive expiries are
        taken as a deputy crash: outstanding lost prefetches are written
        off and the migrant degrades to demand-only paging until a reply
        arrives again.  Exhausting ``max_attempts`` raises
        :class:`MigrationError` instead of hanging the simulation.
        """
        sim = self.sim
        res = self.outcome.residency
        service = self.outcome.page_service
        retry = self.retry
        tr = self._tracer
        assert retry is not None
        self._await_stall = 0.0
        attempt = 0
        while True:
            res.absorb_arrivals(sim.now)
            if res.buffered_set:
                yield from self._copy_buffered(res)
            if vpn in res.mapped:
                break
            arrival = res.arrival_time(vpn) if vpn in res.in_flight else math.inf
            timed = math.isinf(arrival)
            if timed:
                u = float(self._retry_rng.random()) if self._retry_rng is not None else 0.0
                wait = retry.timeout_for(attempt, u)
            else:
                wait = max(arrival - sim.now, 0.0)
            if wait > 0.0:
                self._release_cpu()
                t0 = sim._now if tr is not None else 0.0
                if not sim.try_advance(wait):
                    yield Timeout(wait)
                self._acquire_cpu()
                self.budget.stall += wait
                if tr is not None:
                    tr.complete(
                        MIGRANT_TRACK, "stall", t0, wait, "stall",
                        vpn=vpn, attempt=attempt, timed=timed,
                    )
                self._await_stall += wait
            res.absorb_arrivals(sim.now)
            if res.buffered_set:
                yield from self._copy_buffered(res)
            if vpn in res.mapped:
                break
            if not timed:
                continue  # recompute: a retransmitted reply may be closer
            self.counters.request_timeouts += 1
            self._log_event(FaultEventKind.TIMEOUT, detail=f"vpn={vpn} attempt={attempt}")
            if tr is not None:
                tr.instant(MIGRANT_TRACK, "timeout", sim.now, vpn=vpn, attempt=attempt)
            attempt += 1
            if attempt > retry.max_attempts:
                raise MigrationError(
                    f"demand page {vpn} never arrived after {attempt} attempts "
                    f"(final timeout {wait:.4g}s, total wait {self._await_stall:.4g}s): "
                    "the link is too lossy or the deputy outage outlasts the retry "
                    "budget; raise RetrySpec.max_attempts/timeout_s or shorten the fault"
                )
            if attempt >= 2 and not self._degraded:
                self._enter_degraded(vpn)
            if attempt >= 2 and self.on_crash_detect is not None:
                # May raise ProcessLostError (home crashed) or repair the
                # route chain so the retransmission below reaches a
                # surviving deputy.
                self.on_crash_detect()
            if seq is None:
                seq = service.next_seq()
            self.counters.retransmits += 1
            self._log_event(
                FaultEventKind.RETRANSMIT, detail=f"vpn={vpn} seq={seq} attempt={attempt}"
            )
            if tr is not None:
                tr.instant(MIGRANT_TRACK, "retransmit", sim.now, vpn=vpn, seq=seq, attempt=attempt)
            if self.checker is not None:
                self.checker.on_request([vpn], [], retransmit=True)
            self._register_fetches(service.request([vpn], [], sim.now, seq=seq))
        if self._degraded:
            self._degraded = False
            self._log_event(FaultEventKind.RECOVER, detail=f"vpn={vpn}")

    def _enter_degraded(self, keep_vpn: int) -> None:
        """Assume the deputy crashed: write off prefetches that will never
        arrive (they return to REMOTE, re-requestable on demand) and stop
        prefetching until a reply gets through again."""
        self._degraded = True
        self.counters.deputy_crash_detections += 1
        self._log_event(FaultEventKind.CRASH_DETECT, detail=f"vpn={keep_vpn}")
        lost = self.outcome.residency.write_off_lost(keep=(keep_vpn,))
        if lost:
            self.counters.prefetch_writeoffs += len(lost)
            for page in lost:
                self._fetched.discard(page)
            self._log_event(FaultEventKind.WRITEOFF, detail=f"pages={len(lost)}")

    def _collect_fault_stats(self) -> None:
        """Fold deputy- and link-side fault statistics into the counters
        so results need no private attributes to report them."""
        c = self.counters
        service = self.outcome.page_service
        deputies = getattr(service, "deputies", None)
        if deputies is None:
            deputy = getattr(service, "deputy", None)
            deputies = [deputy] if deputy is not None else []
        for deputy in deputies:
            c.duplicate_pages_deduped += deputy.duplicate_page_requests
            c.pages_replayed += deputy.replayed_pages
        channels = set(getattr(service, "wire_channels", ()))
        request = getattr(service, "request_channel", None)
        if request is not None:
            channels.add(request)
        for deputy in deputies:
            channels.add(deputy.reply_channel)
        for channel in channels:
            c.messages_dropped += getattr(channel, "dropped_messages", 0)
            c.messages_dropped += getattr(channel, "flap_dropped_messages", 0)
            c.messages_duplicated += getattr(channel, "duplicated_messages", 0)
            c.messages_delayed += getattr(channel, "delayed_messages", 0)

    # ------------------------------------------------------------------
    def _syscall(self, syscall: Syscall):
        service = self.outcome.page_service
        tr = self._tracer
        self.counters.syscalls_forwarded += 1
        if not self._reliable:
            reply_at = service.forward_syscall(syscall, self.sim.now)
            wait = max(reply_at - self.sim.now, 0.0)
            self._release_cpu()
            t0 = self.sim.now if tr is not None else 0.0
            if not self.sim.try_advance(wait):
                yield Timeout(wait)
            self._acquire_cpu()
            self.budget.add("syscall", wait)
            if tr is not None:
                tr.complete(MIGRANT_TRACK, "syscall", t0, wait, "syscall")
            return
        # Reliable forwarding: a lost request or reply (infinite arrival)
        # is retransmitted with the same seq, so the deputy re-sends the
        # reply without re-executing the call (exactly-once semantics).
        retry = self.retry
        assert retry is not None
        seq = service.next_seq()
        attempt = 0
        reply_at = service.forward_syscall(syscall, self.sim.now, seq=seq)
        while True:
            if math.isinf(reply_at):
                u = float(self._retry_rng.random()) if self._retry_rng is not None else 0.0
                wait = retry.timeout_for(attempt, u)
            else:
                wait = max(reply_at - self.sim.now, 0.0)
            if wait > 0.0:
                self._release_cpu()
                t0 = self.sim.now if tr is not None else 0.0
                if not self.sim.try_advance(wait):
                    yield Timeout(wait)
                self._acquire_cpu()
                self.budget.add("syscall", wait)
                if tr is not None:
                    tr.complete(
                        MIGRANT_TRACK, "syscall", t0, wait, "syscall", attempt=attempt
                    )
            if not math.isinf(reply_at):
                break
            self.counters.request_timeouts += 1
            self._log_event(FaultEventKind.TIMEOUT, detail=f"syscall seq={seq}")
            if tr is not None:
                tr.instant(MIGRANT_TRACK, "timeout", self.sim.now, syscall_seq=seq)
            attempt += 1
            if attempt > retry.max_attempts:
                raise MigrationError(
                    f"forwarded syscall reply never arrived after {attempt} attempts: "
                    "the link is too lossy or the deputy outage outlasts the retry budget"
                )
            if attempt >= 2 and self.on_crash_detect is not None:
                self.on_crash_detect()
            self.counters.retransmits += 1
            self._log_event(
                FaultEventKind.RETRANSMIT, detail=f"syscall seq={seq} attempt={attempt}"
            )
            reply_at = service.forward_syscall(syscall, self.sim.now, seq=seq)
