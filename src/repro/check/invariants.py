"""The runtime invariant checker.

The checker is attached to each migrated execution by
:class:`repro.cluster.session.ScenarioRuntime` when
``SimulationConfig.checks.enabled`` is true.  It observes three event
streams — simulator events (clock), paging requests (wire), and faults
(executor) — and verifies after each one that the modelled system still
satisfies the structural laws of the paper:

Cheap checks, run on **every** event (O(1)):

* **Residency conservation** — the four-state partition never leaks or
  duplicates a page: ``|MAPPED| + |BUFFERED| + |IN_FLIGHT| + |REMOTE|``
  equals the initial page population plus pages created since, and the
  MPT tracks exactly that universe.
* **Fetch-flow conservation** — every page put on the wire is accounted
  for: ``demand_fetched + prefetched == in_flight + buffered + copied +
  written_off``.
* **Fault-counter consistency** — the executor's per-kind fault counters
  equal the checker's independent tally of observed fault events.
* **Clock monotonicity** — the virtual clock never runs backwards across
  simulator events or checker hooks.

Deep audit, run every ``CheckSpec.deep_audit_interval`` checked events
and once at end of run (O(pages)):

* every flag array agrees with its running count (residency, MPT, HPT);
* the four residency sets are pairwise disjoint;
* ``MPT.LOCAL == MAPPED`` and ``MPT.HOME == BUFFERED | IN_FLIGHT |
  REMOTE`` (the section 2.2 split);
* ``HPT ⊆ REMOTE | IN_FLIGHT`` always, and ``REMOTE ⊆ HPT`` on
  fault-free runs (under fault injection a served page whose reply was
  lost may be written off back to REMOTE while the origin keeps only a
  replay-cache copy);
* the deputy's page ledger balances (see :meth:`Deputy.audit_ledger`).

The **no-duplicate-transfer** rule is checked at request time: a fresh
paging request may only name pages currently in REMOTE (requesting a
page that is local, buffered, or already on the wire would double-fetch
it); a retransmission may re-name its in-flight demand page.

Any violation raises :class:`repro.errors.InvariantViolation` with the
most recent events attached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..config import CheckSpec
from ..errors import InvariantViolation
from ..mem.fault import FaultKind

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import NodeFaultPlan
    from ..metrics.counters import Counters
    from ..migration.base import MigrationOutcome
    from ..sim import Simulator


@dataclass(frozen=True, slots=True)
class CheckEvent:
    """One observed event in the checker's ring buffer."""

    time: float
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return f"t={self.time:.6f} {self.kind}: {self.detail}"


class InvariantChecker:
    """Verifies the structural invariants of one migrated execution."""

    def __init__(
        self,
        spec: CheckSpec,
        sim: "Simulator",
        outcome: "MigrationOutcome",
        counters: "Counters",
        node_plan: "NodeFaultPlan | None" = None,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.outcome = outcome
        self.counters = counters
        self.node_plan = node_plan
        self._trace: deque[CheckEvent] = deque(maxlen=max(spec.trace_depth, 1))
        self._last_time = sim.now
        self._events_checked = 0
        self.deep_audits = 0
        #: Independent tally of fault events, by kind.
        self._observed: dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        #: Page population at attach time; grows only by creation faults.
        self._initial_pages = outcome.residency.total_pages
        #: Pages already on the wire (or buffered) at attach time: FFA
        #: *pushes* the remaining stack pages after resume, so they enter
        #: IN_FLIGHT without a paging request having been counted.
        self._initial_pending = (
            outcome.residency.n_in_flight + outcome.residency.n_buffered
        )
        #: FFA serves pages from a file server: the HPT is drained by the
        #: post-freeze flush, not by remote paging, so the two-sided
        #: HPT/residency bound only holds one way there.
        self._is_ffa = hasattr(outcome.page_service, "flush_times")
        self._fault_free = outcome.page_service.deputy.fault_plan is None and not (
            node_plan is not None and node_plan.active
        )

    # ------------------------------------------------------------------
    def _record(self, kind: str, detail: str) -> None:
        self._trace.append(CheckEvent(self.sim.now, kind, detail))

    def _fail(self, invariant: str, detail: str) -> None:
        raise InvariantViolation(invariant, detail, trace=tuple(self._trace))

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_sim_event(self, time: float) -> None:
        """Simulator observer: the virtual clock must be monotonic."""
        if time < self._last_time:
            self._fail(
                "monotonic-clock",
                f"event fired at t={time} after the clock reached {self._last_time}",
            )
        self._last_time = time

    def on_request(
        self,
        demand: Sequence[int],
        prefetch: Sequence[int],
        retransmit: bool = False,
    ) -> None:
        """Called immediately *before* a paging request goes on the wire."""
        res = self.outcome.residency
        label = "retransmit" if retransmit else "request"
        self._record(label, f"demand={list(demand)} prefetch={len(prefetch)} pages")
        seen: set[int] = set()
        for vpn in [*demand, *prefetch]:
            if vpn in seen:
                self._fail(
                    "duplicate-transfer",
                    f"page {vpn} named twice in one paging request",
                )
            seen.add(vpn)
        if retransmit:
            # A retransmission may re-request its (lost) in-flight pages.
            for vpn in seen:
                if not (res.is_remote(vpn) or vpn in res.in_flight):
                    self._fail(
                        "duplicate-transfer",
                        f"retransmission names page {vpn} which is neither "
                        "remote nor in flight",
                    )
            return
        for vpn in seen:
            if not res.is_remote(vpn):
                state = self._state_of(vpn)
                self._fail(
                    "duplicate-transfer",
                    f"fresh request names page {vpn} which is {state}, not remote "
                    "(it would be fetched twice)",
                )

    def on_fault(self, kind: FaultKind, vpn: int) -> None:
        """Called after the executor fully resolved one fault."""
        self._observed[kind] += 1
        self._record("fault", f"{kind.value} vpn={vpn}")
        self.on_sim_event(self.sim.now)
        self._check_cheap()
        self._events_checked += 1
        if self._events_checked % self.spec.deep_audit_interval == 0:
            self.deep_audit()

    def note_interrupted_fault(self, kind: FaultKind) -> None:
        """Reconcile a fault cut short by a node crash.

        The executor bumps the per-kind counter when a fault is
        classified but only reports it here once the stall resolves; a
        :class:`repro.errors.ProcessLostError` raised mid-stall kills the
        process in between.  The teardown path calls this so the
        fault-counter-consistency tally still balances at final audit.
        """
        self._observed[kind] += 1
        self._record("fault", f"{kind.value} interrupted by node crash")

    def final_audit(self) -> None:
        """Run at end of execution: deep audit + full counter consistency."""
        self._record("final", "end of execution")
        self._check_cheap()
        self.deep_audit()

    # ------------------------------------------------------------------
    # cheap (O(1)) checks
    # ------------------------------------------------------------------
    def _state_of(self, vpn: int) -> str:
        res = self.outcome.residency
        if res.is_mapped(vpn):
            return "mapped"
        if vpn in res.buffered:
            return "buffered"
        if vpn in res.in_flight:
            return "in flight"
        if res.is_remote(vpn):
            return "remote"
        return "untracked"

    def _check_cheap(self) -> None:
        res = self.outcome.residency
        c = self.counters

        expected = self._initial_pages + c.create_faults
        if res.total_pages != expected:
            self._fail(
                "residency-conservation",
                f"residency tracks {res.total_pages} pages "
                f"(mapped={res.n_mapped} buffered={res.n_buffered} "
                f"in_flight={res.n_in_flight} remote={res.n_remote}) but "
                f"initial({self._initial_pages}) + created({c.create_faults}) "
                f"= {expected}",
            )
        if len(self.outcome.mpt) != expected:
            self._fail(
                "mpt-conservation",
                f"MPT holds {len(self.outcome.mpt)} entries for a population "
                f"of {expected} pages",
            )

        fetched = c.pages_demand_fetched + c.pages_prefetched + self._initial_pending
        accounted = res.n_in_flight + res.n_buffered + c.pages_copied + c.prefetch_writeoffs
        if fetched != accounted:
            self._fail(
                "fetch-flow-conservation",
                f"{fetched} pages were put on the wire "
                f"(demand={c.pages_demand_fetched} prefetch={c.pages_prefetched} "
                f"pushed={self._initial_pending}) but {accounted} are accounted for "
                f"(in_flight={res.n_in_flight} buffered={res.n_buffered} "
                f"copied={c.pages_copied} written_off={c.prefetch_writeoffs})",
            )

        tallies = {
            FaultKind.MAJOR: c.major_faults,
            FaultKind.IN_FLIGHT_WAIT: c.inflight_waits,
            FaultKind.MINOR_BUFFERED: c.minor_buffered_faults,
            FaultKind.MINOR_CREATE: c.create_faults,
        }
        for kind, counted in tallies.items():
            if counted != self._observed[kind]:
                self._fail(
                    "fault-counter-consistency",
                    f"counters report {counted} {kind.value} faults but the "
                    f"checker observed {self._observed[kind]}",
                )

    # ------------------------------------------------------------------
    # deep (O(pages)) audit
    # ------------------------------------------------------------------
    def deep_audit(self) -> None:
        """Full set-theoretic audit of residency, MPT/HPT, and the deputy."""
        self.deep_audits += 1
        res = self.outcome.residency
        sets = res.state_sets()
        self._check_count("mapped", len(sets["mapped"]), res.n_mapped)
        self._check_count("remote", len(sets["remote"]), res.n_remote)

        names = list(sets)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                overlap = sets[a] & sets[b]
                if overlap:
                    self._fail(
                        "residency-disjointness",
                        f"pages in both {a} and {b}: {sorted(overlap)[:8]}",
                    )

        from ..mem.page_table import PageLocation

        mpt = self.outcome.mpt
        mpt_local = mpt.pages_at(PageLocation.LOCAL)
        mpt_home = mpt.pages_at(PageLocation.HOME)
        self._check_count("MPT", len(mpt_local) + len(mpt_home), len(mpt))
        if mpt_local != sets["mapped"]:
            drift = mpt_local.symmetric_difference(sets["mapped"])
            self._fail(
                "mpt-split",
                f"MPT LOCAL != mapped set; differing pages: {sorted(drift)[:8]}",
            )
        away = sets["buffered"] | sets["in_flight"] | sets["remote"]
        if mpt_home != away:
            drift = mpt_home.symmetric_difference(away)
            self._fail(
                "mpt-split",
                f"MPT HOME != buffered|in_flight|remote; differing pages: "
                f"{sorted(drift)[:8]}",
            )

        # After a multi-hop re-migration the pages left behind are split
        # across the home deputy and one transit deputy per intermediate
        # node (section 3.2); the HPT bound holds for the union of all
        # their ledgers.  Deputies whose host crashed keep being audited:
        # chain repair must leave their HPTs empty (every page forfeited
        # and re-homed).
        service = self.outcome.page_service
        deputies = [*service.deputies, *service.dead_deputies]
        hpt_pages = set()
        for deputy in deputies:
            stored = deputy.hpt.pages
            self._check_count("HPT", len(stored), len(deputy.hpt))
            hpt_pages |= stored
        stray = hpt_pages - (sets["remote"] | sets["in_flight"])
        if stray:
            self._fail(
                "hpt-split",
                f"origin stores pages the migrant believes delivered: "
                f"{sorted(stray)[:8]}",
            )
        if self._fault_free and not self._is_ffa:
            # On a clean run every remote page must still be stored at the
            # origin (transferred pages are deleted there, section 2.2).
            missing = sets["remote"] - hpt_pages
            if missing:
                self._fail(
                    "hpt-split",
                    f"remote pages the origin no longer stores: "
                    f"{sorted(missing)[:8]}",
                )

        if not self._is_ffa:
            for deputy in deputies:
                deputy.audit_ledger()

    def _check_count(self, name: str, flagged: int, count: int) -> None:
        """A dense table's flags must agree with its running count."""
        if flagged != count:
            self._fail(
                "flag-count",
                f"{name} flags hold {flagged} pages but its running count is {count}",
            )
