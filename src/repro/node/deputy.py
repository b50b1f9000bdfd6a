"""The deputy: the origin-side remnant of a migrated process.

Paper section 2.2: after migration "the original process instance will be
switched to a 'deputy' process which only answers remote paging requests
and executes system calls on behalf of the migrant".  The deputy owns the
home page table; when it ships a page it deletes the origin copy.

The deputy is modelled as a deterministic server: a request arriving at
time ``a`` starts service at ``max(a, busy_until)``, pays a per-request
cost plus a per-page lookup cost, and streams the pages onto the
origin -> destination channel in order (demand page first), which is what
produces the pipelining effect of section 5.4.

Reliability (the fault-injection PR): the deputy is *idempotent*.  A page
appearing in both the demand and prefetch list of one message is served
once (demand wins) and counted.  Under a :class:`repro.faults.FaultPlan`
the deputy keeps a bounded replay cache of recently released pages so a
retransmitted request re-sends pages whose earlier reply was lost instead
of raising "origin no longer stores it", and it silently ignores requests
arriving inside a scheduled crash window (its state survives the
restart).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

from ..config import HardwareSpec
from ..errors import MemoryStateError
from ..mem.page_table import HomePageTable
from ..net.link import Direction
from ..obs.spans import DEPUTY_TRACK

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan

#: How many request sequence IDs the deputy remembers for dedup counting.
SEQ_CACHE_SIZE = 1024


class Deputy:
    """Remote paging / syscall server on the origin node."""

    def __init__(
        self,
        hpt: HomePageTable,
        reply_channel: Direction,
        hardware: HardwareSpec,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.hpt = hpt
        self.reply_channel = reply_channel
        self.hardware = hardware
        self.fault_plan = fault_plan
        self.busy_until = 0.0
        self.requests_served = 0
        self.pages_served = 0
        self.syscalls_served = 0
        #: Pages deduplicated out of one message (demand beat prefetch).
        self.duplicate_page_requests = 0
        #: Requests recognised as retransmissions of an already-served seq.
        self.duplicate_requests = 0
        #: Pages re-sent from the replay cache after their release.
        self.replayed_pages = 0
        #: Requests ignored because the deputy was crashed on arrival.
        self.requests_ignored = 0
        self._seen_seqs: OrderedDict[int, None] = OrderedDict()
        self._seen_syscall_seqs: OrderedDict[int, None] = OrderedDict()
        # Recently released pages, re-sendable on retransmission.  Only
        # maintained under fault injection; bounded by the fault spec.
        self._replay_pages: OrderedDict[int, None] = OrderedDict()
        self._replay_capacity = (
            fault_plan.spec.replay_cache_pages if fault_plan is not None else 0
        )
        #: Optional :class:`repro.obs.Observability` bundle (set by the
        #: scenario runtime on traced runs).  Pure observer — serve spans
        #: and queue metrics only; None on default runs.
        self.obs = None
        #: Trace track of this deputy's spans.  The runtime names one per
        #: deputy, so a deputy, which serves one request at a time, never
        #: records overlapping spans.
        self.track = DEPUTY_TRACK
        # Histogram handles and the serve-span recorder, resolved on
        # first serve (see _trace_serve).
        self._h_queue_wait = None
        self._h_batch_pages = None
        self._rec_serve = None
        #: Optional whole-node outage predicate ``f(t) -> bool`` wired by
        #: the scenario runtime when a :class:`repro.faults.NodeFaultPlan`
        #: is active.  Unlike a deputy crash window (the deputy pauses and
        #: its state survives), a node outage means the host is dark: the
        #: deputy ignores everything that arrives while it holds, and —
        #: because the closure also captures the deputy's birth time — it
        #: stays dead after a crash even once the node restarts.
        self.node_outage = None
        #: Fallback :class:`repro.faults.FaultInjectionLog` for node-outage
        #: ignores when no FaultPlan (and hence no plan-attached log) exists.
        self.node_log = None

    # ------------------------------------------------------------------
    def _trace_serve(
        self, arrival: float, start: float, end: float, pages: int, seq: int | None
    ) -> None:
        """Record one serve span + queue-wait sample (obs is armed)."""
        obs = self.obs
        if obs.tracer is not None:
            if seq is None:
                rec = self._rec_serve
                if rec is None:
                    rec = self._rec_serve = obs.tracer.span_site(
                        self.track, "serve", arg="pages"
                    )
                rec(start, end - start, pages)
            else:
                obs.tracer.complete(
                    self.track, "serve", start, end - start, pages=pages, seq=seq
                )
        if obs.metrics is not None:
            h = self._h_queue_wait
            if h is None:
                h = self._h_queue_wait = obs.metrics.histogram(
                    "deputy_queue_wait_s"
                )
                self._h_batch_pages = obs.metrics.histogram("deputy_batch_pages")
            h.observe(start - arrival)
            self._h_batch_pages.observe(float(pages))

    # ------------------------------------------------------------------
    def _down_at(self, t: float) -> bool:
        if self.fault_plan is not None and self.fault_plan.deputy_down(t):
            return True
        return self.node_outage is not None and self.node_outage(t)

    def _log_ignored(self, t: float, detail: str) -> None:
        self.requests_ignored += 1
        log = None
        if self.fault_plan is not None and self.fault_plan.log is not None:
            log = self.fault_plan.log
        elif self.node_log is not None:
            log = self.node_log
        if log is not None:
            from ..faults.log import FaultEventKind

            log.record(t, FaultEventKind.CRASH_IGNORE, channel="deputy", detail=detail)

    def _remember_released(self, vpn: int) -> None:
        if self._replay_capacity <= 0:
            return
        self._replay_pages[vpn] = None
        self._replay_pages.move_to_end(vpn)
        while len(self._replay_pages) > self._replay_capacity:
            self._replay_pages.popitem(last=False)

    @staticmethod
    def _remember_seq(cache: OrderedDict, seq: int) -> bool:
        """Record ``seq``; returns True if it was already known."""
        if seq in cache:
            cache.move_to_end(seq)
            return True
        cache[seq] = None
        while len(cache) > SEQ_CACHE_SIZE:
            cache.popitem(last=False)
        return False

    # ------------------------------------------------------------------
    def serve_pages(
        self,
        demand: Sequence[int],
        prefetch: Sequence[int],
        request_arrival: float,
        seq: int | None = None,
    ) -> dict[int, float]:
        """Process one paging request; return each page's arrival time at
        the migrant.

        ``demand`` holds at most one page, served first so a blocked
        process resumes as soon as possible; ``prefetch`` pages follow in
        request order.  A page listed in both is served once (demand wins).
        Every freshly served page is deleted from the origin (HPT release);
        a page already released is re-sent from the replay cache when the
        request carries a sequence ID (a retransmission), and is an error
        otherwise.  Each page leaves on the reply channel as one message,
        released ``deputy_page_time`` after the one before it.
        """
        if prefetch:
            ordered = []
            seen: set[int] = set()
            for vpn in [*demand, *prefetch]:
                if vpn in seen:
                    self.duplicate_page_requests += 1
                    continue
                seen.add(vpn)
                ordered.append(vpn)
        else:
            ordered = demand

        if math.isinf(request_arrival):
            # The request was lost in the network: the deputy never saw it.
            return {vpn: math.inf for vpn in ordered}
        if self._down_at(request_arrival):
            self._log_ignored(request_arrival, f"pages={len(ordered)}")
            return {vpn: math.inf for vpn in ordered}

        if seq is not None and self._remember_seq(self._seen_seqs, seq):
            self.duplicate_requests += 1

        hw = self.hardware
        start = max(request_arrival, self.busy_until)
        ready = start + hw.deputy_request_time
        page_dt = hw.deputy_page_time
        hpt = self.hpt
        stored = hpt.stored
        remember = self._replay_capacity > 0
        served = 0
        clock = ready
        for vpn in ordered:
            if 0 <= vpn < len(stored) and stored[vpn]:
                hpt.release(vpn)
                if remember:
                    self._remember_released(vpn)
                served += 1
            elif seq is not None and vpn in self._replay_pages:
                self.replayed_pages += 1
            else:
                raise MemoryStateError(
                    f"page {vpn} requested but the origin no longer stores it"
                )
            clock += page_dt
        self.pages_served += served
        self.busy_until = clock
        self.requests_served += 1
        if self.obs is not None:
            # Before the sends, so a traced run records the serve span
            # ahead of its reply's wire spans.
            self._trace_serve(request_arrival, start, clock, len(ordered), seq)
        # Send each page at its release time, summed as in the loop above.
        size = hw.page_size + hw.remote_paging_overhead_bytes
        transfer = self.reply_channel.transfer
        arrivals: dict[int, float] = {}
        clock = ready
        for vpn in ordered:
            clock += page_dt
            arrivals[vpn] = transfer(size, clock)
        return arrivals

    # ------------------------------------------------------------------
    def holds_replay(self, vpn: int) -> bool:
        """True if ``vpn`` was released recently enough to be re-sendable
        from the replay cache (routing hint for multi-hop page services)."""
        return vpn in self._replay_pages

    def rebind(self, reply_channel: Direction) -> None:
        """Point the reply stream at the migrant's new location.

        Re-migration (paper section 3.2) leaves this deputy where it is —
        only the link its replies travel changes.  Its ledger, replay
        cache, and busy clock carry over untouched, so pages it still
        holds keep being served (and audited) from the same place.
        """
        self.reply_channel = reply_channel

    # ------------------------------------------------------------------
    def audit_ledger(self) -> None:
        """Verify the deputy's own page ledger (repro.check deep audit).

        The deputy is the only actor that releases HPT pages in a
        deputy-backed run, so every release must be accounted for by a
        served page, and the replay cache must respect its bound.
        """
        from ..errors import InvariantViolation

        if self.pages_served != self.hpt.released_total:
            raise InvariantViolation(
                "deputy-ledger",
                f"pages_served={self.pages_served} but the HPT recorded "
                f"{self.hpt.released_total} releases",
            )
        expected = (
            self.hpt.initial_pages
            - self.hpt.released_total
            + self.hpt.stored_total
            - self.hpt.forfeited_total
        )
        if len(self.hpt) != expected:
            raise InvariantViolation(
                "hpt-conservation",
                f"HPT holds {len(self.hpt)} pages but initial({self.hpt.initial_pages}) "
                f"- released({self.hpt.released_total}) + stored({self.hpt.stored_total}) "
                f"- forfeited({self.hpt.forfeited_total}) = {expected}",
            )
        if self._replay_capacity >= 0 and len(self._replay_pages) > self._replay_capacity:
            raise InvariantViolation(
                "replay-cache-bound",
                f"replay cache holds {len(self._replay_pages)} pages, "
                f"capacity {self._replay_capacity}",
            )

    # ------------------------------------------------------------------
    def serve_syscall(
        self,
        request_arrival: float,
        service_time: float,
        reply_payload_bytes: int = 64,
        seq: int | None = None,
    ) -> float:
        """Execute a forwarded system call; return the reply's arrival time
        at the migrant (the home-dependency cost of section 7).

        A retransmitted syscall (known ``seq``) re-sends the reply without
        re-executing the call, keeping forwarded syscalls exactly-once.
        """
        if service_time < 0:
            raise MemoryStateError(f"service_time must be non-negative: {service_time}")
        if math.isinf(request_arrival):
            return math.inf
        if self._down_at(request_arrival):
            self._log_ignored(request_arrival, "syscall")
            return math.inf
        start = max(request_arrival, self.busy_until)
        if seq is not None and self._remember_seq(self._seen_syscall_seqs, seq):
            # Replay: just re-send the cached reply.
            self.duplicate_requests += 1
            done = start + self.hardware.deputy_request_time
            self.busy_until = done
            if self.obs is not None and self.obs.tracer is not None:
                self.obs.tracer.complete(
                    self.track, "syscall_replay", start, done - start
                )
            return self.reply_channel.transfer(reply_payload_bytes, done)
        done = start + self.hardware.deputy_request_time + service_time
        self.busy_until = done
        self.syscalls_served += 1
        if self.obs is not None and self.obs.tracer is not None:
            self.obs.tracer.complete(self.track, "syscall", start, done - start)
        return self.reply_channel.transfer(reply_payload_bytes, done)
