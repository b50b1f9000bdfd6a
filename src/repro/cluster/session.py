"""ScenarioRuntime: executes a declarative :class:`ScenarioSpec`.

One runtime owns the simulator, the cluster (nodes + a full-mesh
network whose links are created on first use, with per-link overrides),
the shared fault plan, and every migrant process.  Each migrant walks
its :class:`MigrantSpec.path`:

* the first hop is a normal migration (``strategy.perform``);
* every further hop preempts the migrant's one executor between trace
  events, quiesces the in-flight pages, and calls ``strategy.rehop`` —
  AMPoM and NoPrefetch leave a *transit deputy* holding the pages left
  behind (paper section 3.2), openMosix ships everything, FFA re-flushes
  to the file server — before the executor continues on the next node.
  The home deputy (system calls, home-resident pages) stays on
  ``path[0]`` for the whole journey and its reply channel is rebound at
  each hop — the home-dependency forwarding of section 3.2.

Every fixed-migrant experiment runs through this class: the paper's
two-node procedure is ``ScenarioRuntime(two_node_spec(workload,
strategy)).execute()[0]``, and a burst of concurrent migrants is one
:class:`MigrantSpec` per process, staggered by ``start_s``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ..errors import MigrationError, ProcessLostError
from ..faults import (
    FaultEventKind,
    FaultInjectionLog,
    FaultPlan,
    NodeFaultPlan,
    NodeFaultStats,
    install_lossy_link,
)
from ..migration.base import MigrationContext, MigrationOutcome, MigrationStrategy
from ..migration.executor import ExecutionResult, MigrantExecutor
from ..migration.ffa import FfaMigration
from ..net.shaper import TrafficShaper
from ..node.infod import InfoDaemon
from ..obs.spans import DEPUTY_TRACK, MIGRANT_TRACK
from ..sim import Simulator, Timeout
from ..sim.rng import child_rng
from .cluster import Cluster
from .loadgen import BackgroundLoad
from .topology import FILE_SERVER, MigrantSpec, ScenarioSpec, resolve_strategy

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

#: Journey event of each recovery step -> its NodeFaultStats counter and
#: injection-log event: the pairs ``JourneyLog.reconcile()`` compares.
_RECOVERIES = {
    "abort": ("migration_aborts", FaultEventKind.MIGRATION_ABORT),
    "retarget": ("retargets", FaultEventKind.RETARGET),
    "chain_repair": ("chain_repairs", FaultEventKind.CHAIN_REPAIR),
    "killed": ("kills", FaultEventKind.KILL),
}


def _home_lost(home: str, now: float) -> ProcessLostError:
    """The error that kills a migrant whose home node died."""
    return ProcessLostError(
        f"home node {home!r} crashed at t={now:.6f}; the deputy is "
        "gone and openMosix's home dependency kills the migrant"
    )


class ScenarioRuntime:
    """Builds and executes one :class:`ScenarioSpec`."""

    def __init__(self, spec: ScenarioSpec, obs: "Observability | None" = None) -> None:
        self.spec = spec
        self.config = spec.resolved_config()
        #: Optional repro.obs bundle; ``None`` (or an all-``None`` bundle)
        #: keeps every hook detached and the simulator's no-observer fast
        #: path intact.
        self.obs = obs if obs is not None and obs.active else None
        #: The bundle handed to deputies.  Only span and metrics
        #: instruments read ``deputy.obs``; leaving it unset for
        #: fleet/journey-only bundles keeps the deputy's per-request hot
        #: path on its no-observer fast branch.
        self._deputy_obs = (
            self.obs
            if self.obs is not None
            and (self.obs.tracer is not None or self.obs.metrics is not None)
            else None
        )

        self.sim = Simulator()
        graph = spec.graph
        self.cluster = Cluster(
            self.sim, self.config, graph.nodes, link_specs=graph.spec_overrides()
        )
        n = len(spec.migrants)
        self.outcomes: list[MigrationOutcome | None] = [None] * n
        self.results: list[ExecutionResult | None] = [None] * n
        #: Attached invariant checkers (when config.checks.enabled).
        self.checkers: list[object | None] = [None] * n
        #: Each migrant's current InfoDaemon (``None`` without one).
        self.migrant_infods: list[InfoDaemon | None] = [None] * n
        #: Shared daemons, keyed (destination, home): concurrent migrants
        #: on the same node pair share one measurement stream.
        self._infods: dict[tuple[str, str], InfoDaemon] = {}
        self._executed = False

        # Fault injection: when the spec can perturb anything, wrap every
        # link a migrant's paging traffic crosses in lossy directions
        # driven by one seeded plan.  Random injection is armed only once
        # the first migrant resumes (see _migrant), so the freeze-time
        # bulk transfers stay untouched.
        self.fault_plan: FaultPlan | None = None
        self.injection_log: FaultInjectionLog | None = None
        if self.config.faults.active:
            self.injection_log = FaultInjectionLog()
            self.fault_plan = FaultPlan(
                self.config.faults,
                seed=self.config.seed,
                log=self.injection_log,
                active_from=float("inf"),
            )
            for a, b in self._lossy_pairs():
                install_lossy_link(self.cluster.network, a, b, self.fault_plan)

        # Whole-node failure schedule (NodeFaultSpec): seeded crash/restart
        # windows per topology node.  A crashed node takes its deputies,
        # infod answers, and gossip participation down atomically; the
        # per-migrant recovery paths live in _migrant.  The file server is
        # protected — FFA assumes a reliable backing store.
        self.node_plan: NodeFaultPlan | None = None
        self.node_stats = NodeFaultStats()
        if self.obs is not None and self.obs.journeys is not None:
            # Every true failure detection (probe escalation, retransmit
            # conclusion) also lands in the journey log's cluster lane, so
            # detections reconcile exactly against the stats counter.
            self.node_stats.on_detection = self.obs.journeys.on_detection
        #: Fleet-telemetry aggregation state (armed obs.fleet only): live
        #: residencies/deputies grouped per node so one gauge per (node,
        #: series) samples the node-wide aggregate.
        self._fleet_residencies: dict[str, list] = {}
        self._fleet_deputies: dict[str, list] = {}
        self._fleet_tracked: set[tuple[str, str]] = set()
        self._fleet_gauges = None  # lazy GaugeSet (one per runtime)
        #: ``(counters, budget, home deputy)`` of every migrant the
        #: run-wide inspector watches; its probes sum over them.
        self._inspected: list[tuple] = []
        #: Optional re-targeting hook ``f(route, hop, now) -> node | None``
        #: installed by :class:`repro.cluster.sustained.SustainedLoadDriver`;
        #: consulted when a migration's destination is dark.
        self.retarget = None
        if self.config.node_faults.active:
            plan = NodeFaultPlan(
                self.config.node_faults,
                seed=self.config.seed,
                nodes=graph.nodes,
                protected={FILE_SERVER} if FILE_SERVER in graph.nodes else (),
            )
            if plan.active:
                self.node_plan = plan
                if self.injection_log is None:
                    self.injection_log = FaultInjectionLog()
                self._schedule_node_boundaries()

        # Section 5.5: tc/iptables shaping of individual links.
        for link in graph.links:
            if link.shaped_bandwidth_bps is not None:
                shaper = TrafficShaper(self.cluster.network.link_between(link.a, link.b))
                shaper.apply(link.shaped_bandwidth_bps, link.shaped_latency_s)

        # Wire-occupancy spans: attach the tracer's hook to both directions
        # of every migrant-crossed link (after any lossy wrapping, so
        # injected runs trace the wrapper's base transfers).  Pure observer
        # — the hook only records; arrival arithmetic is unchanged.
        if self.obs is not None and self.obs.tracer is not None:
            hook = self.obs.tracer.wire_hook()
            network = self.cluster.network
            for a, b in self._paging_pairs():
                network.direction(a, b).trace_hook = hook
                network.direction(b, a).trace_hook = hook

        #: Background CPU load, keyed by node (scheduled at construction).
        self.background = {
            node: BackgroundLoad(self.sim, self.cluster.node(node), list(windows))
            for node, windows in spec.background.items()
        }

    # ------------------------------------------------------------------
    # link selection
    # ------------------------------------------------------------------
    def _paging_pairs(self) -> list[tuple[str, str]]:
        """Ordered unique node pairs the migrants' deputy traffic crosses:
        consecutive path hops plus every home-dependency link.  File-server
        links are excluded — FFA's flush stream has no deputy protocol on
        it."""
        pairs: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()

        def add(a: str, b: str) -> None:
            key = (a, b) if a <= b else (b, a)
            if a == b or key in seen:
                return
            seen.add(key)
            pairs.append((a, b))

        for migrant in self.spec.migrants:
            path = migrant.path
            for i in range(len(path) - 1):
                add(path[i], path[i + 1])
            for node in path[2:]:
                add(path[0], node)
        return pairs

    def _lossy_pairs(self) -> list[tuple[str, str]]:
        """The pairs to wrap in lossy directions: the migrants' paging
        links, minus any the graph pins ``lossy=False``, plus any it pins
        ``lossy=True``."""
        graph = self.spec.graph
        pairs: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for a, b in self._paging_pairs():
            link = graph.link_spec(a, b)
            if link is not None and link.lossy is False:
                continue
            key = (a, b) if a <= b else (b, a)
            seen.add(key)
            pairs.append((a, b))
        for link in graph.links:
            if link.lossy and link.pair not in seen:
                pairs.append((link.a, link.b))
        return pairs

    # ------------------------------------------------------------------
    # whole-node failure machinery
    # ------------------------------------------------------------------
    def _schedule_node_boundaries(self) -> None:
        """Schedule a logging/counting callback at every crash/restart
        boundary of the node plan (boundaries after the last migrant
        finishes simply never fire)."""
        assert self.node_plan is not None
        for time, node, is_crash in self.node_plan.boundaries():
            self.sim.schedule_at(time, self._node_boundary(node, time, is_crash))

    def _node_boundary(self, node: str, time: float, is_crash: bool):
        def fire() -> None:
            n = self.cluster.node(node)
            if is_crash:
                n.crashes += 1
                self.node_stats.crashes += 1
                kind = FaultEventKind.NODE_CRASH
            else:
                n.restarts += 1
                self.node_stats.restarts += 1
                kind = FaultEventKind.NODE_RESTART
            if self.injection_log is not None:
                self.injection_log.record(time, kind, channel="node", detail=node)

        return fire

    def _arm_deputy(self, deputy, node: str, born: float) -> None:
        """Tie a deputy's liveness to its host node: once the node crashes
        after ``born`` the deputy is permanently gone (requests are
        ignored), even across the node's restart."""
        plan = self.node_plan
        if plan is None or deputy.node_outage is not None:
            return

        def outage(t: float, _node: str = node, _born: float = born) -> bool:
            return plan.down(_node, t) or plan.crashed_in(_node, _born, t)

        deputy.node_outage = outage
        if deputy.node_log is None:
            deputy.node_log = self.injection_log

    def _arm_transit_deputies(self, outcome: MigrationOutcome) -> None:
        """Arm any transit deputies a rehop just created (the home deputy
        keeps its original closure — _arm_deputy preserves the birth)."""
        service = outcome.page_service
        for (node, born), deputy in zip(service.transit_routes(), service.deputies[1:]):
            self._arm_deputy(deputy, node, born)

    def _hazard_for(self, node: str, since: float, home: str, home_since: float, infod):
        """Build the executor's between-events crash check for one leg.

        The migrant's *own* node is checked omnisciently (the process dies
        with the machine — there is nobody left to be notified); the home
        node's death is only acted on once the failure detector (infod
        probe suspicion) has noticed it, so a CPU-bound migrant that never
        talks to a dead home keeps running until it does.
        """
        plan = self.node_plan
        assert plan is not None

        def check(now: float) -> None:
            if plan.down(node, now) or plan.crashed_in(node, since, now):
                raise ProcessLostError(
                    f"node {node!r} crashed under the migrant at t={now:.6f}"
                )
            if (
                infod is not None
                and infod.suspected
                and plan.crashed_in(home, home_since, now)
            ):
                raise _home_lost(home, now)

        return check

    def _crash_handler(
        self, outcome: MigrationOutcome, home: str, home_since: float, journey: str | None
    ):
        """Build the executor's ``on_crash_detect`` hook: fired when the
        retry protocol concludes a remote server is dead.  Home death is
        fatal (checked first); a dead transit deputy triggers chain repair
        — its pages are re-sourced from the home deputy and the route is
        dropped, so the pending retransmission reaches a live server.
        """
        plan = self.node_plan
        assert plan is not None

        def detected(node: str, since: float, now: float) -> bool:
            # Probe-timeout escalation IS a failure detection: latency
            # runs from the crash instant to the protocol's conclusion.
            crash = plan.first_crash_in(node, since, now)
            if crash is not None:
                self.node_stats.record_detection(now - crash, node=node, at=now)
            return crash is not None

        def handle() -> None:
            now = self.sim.now
            if detected(home, home_since, now):
                raise _home_lost(home, now)
            service = outcome.page_service
            for node, born in service.transit_routes():
                if detected(node, born, now):
                    pages = len(service.repair_route(node, now))
                    self.node_stats.pages_rehomed += pages
                    self._recovery(
                        "chain_repair", journey, f"node={node} pages={pages}",
                        node=node, pages=pages,
                    )

        return handle

    # ------------------------------------------------------------------
    @property
    def executed(self) -> bool:
        return self._executed

    def measure_freeze(self, index: int = 0) -> MigrationOutcome:
        """Perform only migrant ``index``'s first migration freeze (no
        trace execution) — figure 5 needs nothing else."""
        if self._executed or self.outcomes[index] is not None:
            raise MigrationError("ScenarioRuntime objects are single-use")
        migrant = self.spec.migrants[index]
        strategy = resolve_strategy(migrant.strategy)
        space = migrant.workload.setup()
        ctx = self._context(
            migrant,
            strategy,
            space,
            migrant.workload.premigration_pages(),
            src=migrant.path[0],
            dst=migrant.path[1],
        )
        outcome = strategy.perform(ctx)
        self.outcomes[index] = outcome
        return outcome

    def execute(self) -> list[ExecutionResult]:
        """Run every migrant to completion; returns results in spec order."""
        if self._executed or any(o is not None for o in self.outcomes):
            raise MigrationError("ScenarioRuntime objects are single-use")
        self._executed = True
        migrants = self.spec.migrants
        single = len(migrants) == 1
        procs = []
        for i, migrant in enumerate(migrants):
            name = migrant.name or ("scenario" if single else f"migrant-{i}")
            procs.append(self.sim.spawn(self._migrant(i, migrant), name=name))
        try:
            for proc in procs:
                self.sim.run_until_complete(proc, max_events=self.spec.max_events)
        finally:
            # The run is over, finished or failed: stop the daemons and
            # release the simulator's pending wake-ups and observers, so
            # nothing left behind refers back to this runtime.
            for infod in self._infods.values():
                infod.stop()
            self.sim.close()
        assert all(r is not None for r in self.results)
        results: list[ExecutionResult] = list(self.results)  # type: ignore[arg-type]
        if self.obs is not None and self.obs.metrics is not None:
            self._finalize_metrics(self.obs.metrics, results)
        return results

    # ------------------------------------------------------------------
    def _context(
        self,
        migrant: MigrantSpec,
        strategy: MigrationStrategy,
        space,
        premigration,
        src: str,
        dst: str,
    ) -> MigrationContext:
        file_server = None
        if isinstance(strategy, FfaMigration) and FILE_SERVER in self.cluster.nodes:
            file_server = FILE_SERVER
        return MigrationContext(
            sim=self.sim,
            network=self.cluster.network,
            hardware=self.config.hardware,
            ampom=self.config.ampom,
            src=src,
            dst=dst,
            address_space=space,
            premigration_pages=premigration,
            file_server=file_server,
            fault_plan=self.fault_plan,
            home=migrant.path[0],
            prefetch_policy=(
                migrant.prefetch_policy
                if migrant.prefetch_policy is not None
                else self.config.prefetch_policy
            ),
        )

    def _infod_for(self, dst: str, home: str) -> InfoDaemon:
        key = (dst, home)
        infod = self._infods.get(key)
        if infod is None:
            infod = InfoDaemon(
                self.sim,
                self.cluster.node(dst),
                to_home=self.cluster.network.direction(dst, home),
                from_home=self.cluster.network.direction(home, dst),
                config=self.config.infod,
                min_bandwidth_fraction=self.config.ampom.min_bandwidth_fraction,
                node_plan=self.node_plan,
                home=home,
                suspect_after=self.config.node_faults.probe_suspect_after,
                stats=self.node_stats,
            )
            self._infods[key] = infod
        return infod

    def _stop_infod(self, dst: str, home: str) -> None:
        infod = self._infods.pop((dst, home), None)
        if infod is not None:
            infod.stop()

    # ------------------------------------------------------------------
    # the migrant process
    # ------------------------------------------------------------------
    def _migrant(self, index: int, migrant: MigrantSpec):
        sim = self.sim
        config = self.config
        obs = self.obs
        jlog = obs.journeys if obs is not None else None
        single = len(self.spec.migrants) == 1
        # The journey key matches the spawned process name, which for
        # sustained phase-2 migrants is the phase-1 task name — the same
        # journey accumulates both phases' events.
        jname = migrant.name or ("scenario" if single else f"migrant-{index}")
        journey = jname if jlog is not None else None
        # One trace track per migrant, so one migrant's fault end never
        # closes another's open fault; a lone migrant keeps the classic one.
        # Likewise one track per deputy: home/<name> for the home deputy and
        # <node>/transit-<name> for a transit one (a lone migrant's keep
        # home/deputy and <node>/transit).
        track = MIGRANT_TRACK if single else f"dest/{jname}"
        deputy_track = DEPUTY_TRACK if single else f"home/{jname}"
        transit_actor = "transit" if single else f"transit-{jname}"
        # Mutable copy of the path: failure-aware re-targeting may rewrite
        # a hop whose destination crashed.  Same length, same start.
        route = list(migrant.path)
        home = route[0]
        hop = 1
        plan = self.node_plan

        def preempt_at() -> float | None:
            # Every leg but the last stops for its re-hop after its delay.
            if hop == len(route) - 1:
                return None
            return sim.now + migrant.hop_delays[hop - 1]

        # The classic single-migrant scenario starts at t=0 with no delay
        # event; staggered multi-migrant runs always schedule one.
        if not single or migrant.start_s > 0.0:
            yield Timeout(migrant.start_s)
        if jlog is not None:
            jlog.record(jname, "exec_start", sim.now, route=list(route))

        strategy = resolve_strategy(migrant.strategy)
        space = migrant.workload.setup()
        premigration = migrant.workload.premigration_pages()

        # --- first migration, with destination-crash abort/rollback ------
        # A crash of the destination inside the freeze aborts the attempt:
        # the partial transfer is written off, the stall is charged to the
        # freeze bucket, and the migrant retries (re-targeted at a survivor
        # when a SustainedLoadDriver installed a retarget hook, after the
        # destination's restart plus a backoff otherwise).  Every second
        # spent on aborted attempts lands in ``pre_freeze`` and from there
        # in the budget's freeze bucket, so the wall-time identity holds.
        pre_freeze = 0.0
        attempt = 0
        while True:
            if plan is not None and (
                plan.down(home, sim.now) or plan.crashed_in(home, 0.0, sim.now)
            ):
                # The process was still on its home node when that node
                # crashed: it dies before migrating at all.
                detail = f"home {home} crashed before migration"
                self._recovery("killed", journey, detail, detail=detail)
                return self._settle(index, self._killed_before_migration(migrant, strategy))
            if plan is not None and plan.down(route[1], sim.now):
                # The destination is dark before the freeze even starts:
                # the connect attempt times out, then re-target or wait.
                pre_freeze += yield from self._aborted_freeze(config.retry.timeout_s, track)
                attempt += 1
                pre_freeze += yield from self._handle_abort(
                    migrant, route, 1, attempt, "connect timeout", journey, track
                )
                continue
            ctx = self._context(
                migrant, strategy, space, premigration, src=home, dst=route[1]
            )
            outcome = strategy.perform(ctx)
            if plan is None:
                break
            crash = plan.first_crash_in(route[1], sim.now, sim.now + outcome.freeze_time)
            if crash is None:
                break
            # Destination died mid-freeze: roll back.  The time already
            # spent freezing is wasted (charged to freeze) and the pages
            # shipped so far are written off with the discarded outcome.
            wasted = crash - sim.now
            self.node_stats.abort_freeze_s += wasted
            self.node_stats.pages_abort_written_off += outcome.pages_shipped
            pre_freeze += yield from self._aborted_freeze(wasted, track)
            attempt += 1
            pre_freeze += yield from self._handle_abort(
                migrant, route, 1, attempt, f"crashed {wasted:.4g}s into the freeze",
                journey, track,
            )
        self.outcomes[index] = outcome
        home_since = sim.now
        if plan is not None:
            self._arm_deputy(outcome.page_service.deputy, home, home_since)
        infod = self._hand_over_infod(index, migrant, outcome, None, route, hop)
        if self.fault_plan is not None:
            # Faults begin the instant the first migrant resumes; a later
            # activation may not postpone an earlier migrant's exposure.
            resume = sim.now + outcome.freeze_time
            if resume < self.fault_plan.active_from:
                self.fault_plan.activate(resume)
        yield from self._freeze(outcome, journey, route, hop, track)

        # Fault-injection runs arm the reliable protocol; pure node-fault
        # runs do too, since only the retransmission loop turns a dead
        # deputy's silence into detection + repair.  FFA has no sequence
        # IDs — it participates through aborts and kills only.
        retry = retry_rng = None
        if self.fault_plan is not None or (
            plan is not None and hasattr(outcome.page_service, "next_seq")
        ):
            retry = config.retry
            retry_rng = child_rng(config.seed, "retry" if single else f"retry-{index}")

        executor = MigrantExecutor(
            sim=sim,
            workload=migrant.workload,
            outcome=outcome,
            node=self.cluster.node(route[hop]),
            hardware=config.hardware,
            infod=infod,
            capacity_pages=migrant.capacity_pages,
            fault_log=migrant.fault_log,
            retry=retry,
            retry_rng=retry_rng,
            injection_log=self.injection_log,
            obs=obs,
            preempt_at=preempt_at(),
            track=track,
        )
        executor.budget.freeze += pre_freeze
        checker = None
        if config.checks.enabled:
            checker = self._make_checker(index, outcome, executor)
        observers = self._attach_observers(
            outcome, executor, home, route[hop], deputy_track
        )
        if plan is not None:
            executor.on_crash_detect = self._crash_handler(
                outcome, home, home_since, journey
            )
        try:
            while True:
                if plan is not None:
                    executor.hazard = self._hazard_for(
                        route[hop], sim.now - outcome.freeze_time,
                        home, home_since, infod,
                    )
                proc = executor.start()
                result = yield proc
                if proc.error is not None:
                    raise proc.take_error()
                if not executor.preempted:
                    break

                # --- re-migration hop (section 3.2) -----------------------
                # Quiesce on the current node, then freeze toward the next
                # one and continue the trace there.
                yield from executor.quiesce()
                hop += 1
                if plan is not None:
                    # Failure-aware re-hop: never freeze toward a node that
                    # is currently dark — re-target or wait out its restart.
                    attempt = 0
                    while plan.down(route[hop], sim.now):
                        attempt += 1
                        executor.budget.freeze += yield from self._handle_abort(
                            migrant, route, hop, attempt, "rehop target dark", journey,
                            track,
                        )
                hop_ctx = self._context(
                    migrant, strategy, space, premigration,
                    src=route[hop - 1], dst=route[hop],
                )
                strategy.rehop(hop_ctx, outcome)
                if plan is not None:
                    self._arm_transit_deputies(outcome)
                infod = self._hand_over_infod(index, migrant, outcome, infod, route, hop)
                if self._deputy_obs is not None:
                    # A transit deputy may have appeared; hand it the bundle
                    # and its own track.
                    service = outcome.page_service
                    for (node, _), deputy in zip(
                        service.transit_routes(), service.deputies[1:]
                    ):
                        deputy.obs = self._deputy_obs
                        deputy.track = f"{node}/{transit_actor}"
                yield from self._freeze(outcome, journey, route, hop, track)
                executor.next_leg(self.cluster.node(route[hop]), infod, preempt_at())
        except ProcessLostError as lost:
            detail = str(lost).splitlines()[0]
            self._recovery("killed", journey, detail, detail=detail)
            result = executor.kill()
        if len(route) > 2:
            # The hops taken: a trace that ends before a hop's deadline
            # never re-migrates, and a kill ends the journey where it is.
            result.extra["hops"] = float(hop)
        if checker is not None:
            checker.final_audit()
            sim.remove_observer(checker.on_sim_event)
        for callback in observers:
            sim.remove_observer(callback)
        if single and infod is not None:
            self._stop_infod(dst=route[hop], home=home)
        if jlog is not None and "killed" not in result.extra:
            jlog.finish(jname, sim.now, "completed", hops=hop)
        return self._settle(index, result)

    def _settle(self, index: int, result: ExecutionResult) -> ExecutionResult:
        """Store migrant ``index``'s result.  The last migrant to settle
        detaches the run-wide inspector, as each migrant detaches its own
        gauges, so the inspector sees no event after the run's work ends."""
        self.results[index] = result
        if (
            self.obs is not None
            and self.obs.inspector is not None
            and all(r is not None for r in self.results)
        ):
            self.sim.remove_observer(self.obs.inspector.on_sim_event)
        return result

    def _freeze(
        self, outcome: MigrationOutcome, journey: str | None, route: list, hop: int,
        track: str,
    ):
        """Record hop ``hop``'s freeze (its span on ``track`` and its
        journey event), then wait it out."""
        sim = self.sim
        tracer = self.obs.tracer if self.obs is not None else None
        if tracer is not None:
            # The freeze span pairs with the executor's ``budget.freeze +=
            # outcome.freeze_time`` charge — same float, recorded first, so
            # bucket_sums()["freeze"] reproduces the budget bit for bit.
            tracer.complete(
                track,
                "freeze",
                sim.now,
                outcome.freeze_time,
                "freeze",
                strategy=outcome.strategy,
                pages=outcome.pages_shipped,
            )
        if journey is not None:
            self.obs.journeys.record(
                journey, "freeze", sim.now,
                src=route[hop - 1], dst=route[hop], hop=hop,
                dur_s=outcome.freeze_time, pages=outcome.pages_shipped,
            )
        yield Timeout(outcome.freeze_time)

    def _aborted_freeze(self, wait: float, track: str):
        """Spend ``wait`` seconds on an aborted freeze attempt (recorded as
        an aborted freeze span on ``track``); returns it for the freeze
        bucket."""
        if wait > 0.0:
            tracer = self.obs.tracer if self.obs is not None else None
            if tracer is not None:
                tracer.complete(
                    track, "freeze", self.sim.now, wait, "freeze", aborted=True
                )
            yield Timeout(wait)
        return wait

    def _hand_over_infod(
        self, index: int, migrant: MigrantSpec, outcome: MigrationOutcome,
        infod: InfoDaemon | None, route: list, hop: int,
    ) -> InfoDaemon | None:
        """Give the migrant the InfoDaemon of its new node ``route[hop]``.
        A lone migrant's previous daemon stops; a shared one keeps serving
        the other migrants on its node pair."""
        if infod is not None and len(self.spec.migrants) == 1:
            self._stop_infod(dst=route[hop - 1], home=route[0])
        if not migrant.with_infod or outcome.policy is None:
            return None
        infod = self._infod_for(dst=route[hop], home=route[0])
        self.migrant_infods[index] = infod
        return infod

    # ------------------------------------------------------------------
    # node-failure recovery paths
    # ------------------------------------------------------------------
    def _handle_abort(
        self, migrant: MigrantSpec, route: list, hop: int, attempt: int, detail: str,
        journey: str | None, track: str,
    ):
        """Recover from the ``attempt``-th (1-based) aborted or unreachable
        freeze toward ``route[hop]``: fail once the retry budget is spent,
        otherwise re-target at a survivor when a retarget hook is
        installed, or wait out the destination's restart plus an
        exponential backoff.  Yields the wait in simulated time and
        *returns* it so the caller can charge it to the freeze bucket
        (keeping the wall-time identity)."""
        sim = self.sim
        plan = self.node_plan
        assert plan is not None
        dst = route[hop]
        if attempt > self.config.retry.max_attempts:
            raise MigrationError(
                f"{'re-' if hop > 1 else ''}migration of {migrant.workload.name} to "
                f"{dst!r} kept aborting ({attempt} attempts): the destination "
                "outage outlasts the retry budget"
            )
        self._recovery(
            "abort", journey, f"dst={dst} {detail}", dst=dst, hop=hop, detail=detail
        )
        target = self.retarget(route, hop, sim.now) if self.retarget is not None else None
        if target is not None and target != dst:
            route[hop] = target
            self._recovery(
                "retarget", journey, f"{dst}->{target}", hop=hop, src=dst, dst=target
            )
            return 0.0
        wait = self.config.retry.timeout_for(attempt - 1, 0.0)
        if plan.down(dst, sim.now):
            wait += plan.restart_time(dst, sim.now) - sim.now
        return (yield from self._aborted_freeze(wait, track))

    def _recovery(self, kind: str, journey: str | None, log_detail: str, **args) -> None:
        """Record one recovery step: bump its NodeFaultStats counter, add
        the journey event (``killed`` seals the journey) and write the
        injection-log event."""
        counter, event = _RECOVERIES[kind]
        stats = self.node_stats
        setattr(stats, counter, getattr(stats, counter) + 1)
        now = self.sim.now
        if journey is not None:
            if kind == "killed":
                self.obs.journeys.finish(journey, now, kind, **args)
            else:
                self.obs.journeys.record(journey, kind, now, **args)
        if self.injection_log is not None:
            self.injection_log.record(now, event, channel="migrant", detail=log_detail)

    @staticmethod
    def _killed_before_migration(
        migrant: MigrantSpec, strategy: MigrationStrategy
    ) -> ExecutionResult:
        """The home node crashed while the process still lived on it: the
        process dies without ever migrating.  Nothing to tear down — no
        outcome, no ledgers — just a zeroed result flagged killed, after
        zero hops."""
        from ..metrics.counters import Counters
        from ..metrics.timeline import TimeBudget

        return ExecutionResult(
            strategy=strategy.name,
            workload=migrant.workload.name,
            memory_bytes=migrant.workload.memory_bytes,
            freeze_time=0.0,
            run_time=0.0,
            budget=TimeBudget(),
            counters=Counters(),
            extra={"killed": 1.0, "hops": 0.0},
        )

    # ------------------------------------------------------------------
    def _make_checker(self, index: int, outcome: MigrationOutcome, executor: MigrantExecutor):
        """Attach the repro.check invariant checker + oracle (observers)."""
        from ..check import DifferentialOracle, InvariantChecker

        checker = InvariantChecker(
            self.config.checks, self.sim, outcome, executor.counters,
            node_plan=self.node_plan,
        )
        executor.checker = checker
        self.checkers[index] = checker
        self.sim.add_observer(checker.on_sim_event)
        if self.config.checks.oracle and hasattr(outcome.policy, "check_oracle"):
            outcome.policy.check_oracle = DifferentialOracle()
        return checker

    def _attach_observers(
        self, outcome: MigrationOutcome, executor: MigrantExecutor, home: str, dst: str,
        deputy_track: str,
    ):
        """Register the migrant's obs gauges with the simulator; returns
        the observer callbacks to detach at the migrant's end.

        ``home``/``dst`` name the migrant's home and first-destination
        nodes for fleet telemetry: armed ``obs.fleet`` samples the deputy
        queue depth under ``home`` and the resident/remote/in-flight page
        counts under ``dst``, aggregated node-wide when several migrants
        share a node.  The home deputy records its spans, and the tracer
        its queue depth, on ``deputy_track``.  The inspector is attached
        once, by the first migrant, and reports run-wide sums over every
        migrant it watches."""
        obs = self.obs
        if obs is None:
            return ()
        from ..obs import DEFAULT_SAMPLE_INTERVAL_S, GaugeSet

        sim = self.sim
        observers = []
        deputy = outcome.page_service.deputy
        fleet = obs.fleet
        if fleet is not None:
            # Fleet gauges aggregate every live migrant on a node, so they
            # stay attached for the whole run (the runtime is single-use)
            # rather than detaching with the migrant that created them.
            # One GaugeSet carries every series behind a single simulator
            # observer so the per-event cost stays flat as migrants
            # accumulate.
            gauges = self._fleet_gauges
            if gauges is None:
                gauges = self._fleet_gauges = GaugeSet(fleet.interval_s)
                sim.add_observer(gauges.on_sim_event)
            queue = self._fleet_deputies.setdefault(home, [])
            queue.append(deputy)
            if ("deputy", home) not in self._fleet_tracked:
                self._fleet_tracked.add(("deputy", home))
                gauges.add(
                    lambda q=queue: sum(max(0.0, d.busy_until - sim.now) for d in q),
                    partial(fleet.push, home, "deputy_queue_depth_s"),
                )
            residencies = self._fleet_residencies.setdefault(dst, [])
            residencies.append(outcome.residency)
            if ("residency", dst) not in self._fleet_tracked:
                self._fleet_tracked.add(("residency", dst))
                for series, attr in (
                    ("resident_pages", "n_mapped"),
                    ("remote_pages", "n_remote"),
                    ("in_flight_pages", "n_in_flight"),
                ):
                    gauges.add(
                        lambda rs=residencies, a=attr: float(sum(getattr(r, a) for r in rs)),
                        partial(fleet.push, dst, series),
                    )
        if self._deputy_obs is not None:
            deputy.obs = obs
            deputy.track = deputy_track

            def queue_depth() -> float:
                return max(0.0, deputy.busy_until - sim.now)

            depth = GaugeSet(DEFAULT_SAMPLE_INTERVAL_S)
            name = "deputy_queue_depth_s"
            if obs.metrics is not None:
                # One series per deputy, labelled with its trace track; a
                # lone migrant's deputy keeps the bare name.
                series = (
                    name if deputy_track == DEPUTY_TRACK
                    else f'{name}{{deputy="{deputy_track}"}}'
                )
                depth.add(queue_depth, partial(obs.metrics.sample_gauge, series))
            if obs.tracer is not None:
                depth.add(queue_depth, partial(obs.tracer.counter, deputy_track, name))
            sim.add_observer(depth.on_sim_event)
            observers.append(depth.on_sim_event)
        inspector = obs.inspector
        if inspector is not None:
            watched = self._inspected
            if not watched:
                add = inspector.add_probe
                add("major_faults", lambda: sum(c.major_faults for c, _, _ in watched))
                add("prefetched", lambda: sum(c.pages_prefetched for c, _, _ in watched))
                add("stall_s", lambda: sum(b.stall for _, b, _ in watched))
                add("compute_s", lambda: sum(b.compute for _, b, _ in watched))
                add(
                    "deputy_queue_s",
                    lambda: sum(max(0.0, d.busy_until - sim.now) for _, _, d in watched),
                )
                sim.add_observer(inspector.on_sim_event)
            watched.append((executor.counters, executor.budget, deputy))
        return observers

    @staticmethod
    def _finalize_metrics(metrics, results: list[ExecutionResult]) -> None:
        """Fold the run's end-of-run prefetch scalars into the registry.

        ``pages_prefetched``, ``pages_demand_fetched`` and ``wasted_pages``
        sum every completed migrant, and prefetch accuracy and waste are
        computed from those sums: once for the run and once per prefetch
        policy under a ``{policy="<name>"}`` label, so multi-policy sweeps
        (the arena) can tell the policies apart in one registry.  A run
        with no completed migrant records none of them.
        """
        completed = [r for r in results if "killed" not in r.extra]
        if not completed:
            return
        prefetched = sum(r.counters.pages_prefetched for r in completed)
        wasted = sum(r.wasted_pages for r in completed)
        metrics.set_counter("pages_prefetched", float(prefetched))
        metrics.set_counter(
            "pages_demand_fetched",
            float(sum(r.counters.pages_demand_fetched for r in completed)),
        )
        metrics.set_counter("wasted_pages", float(wasted))
        #: counter-name suffix -> [pages prefetched, pages wasted]
        totals = {"": [prefetched, wasted]}
        for r in completed:
            sums = totals.setdefault(f'{{policy="{r.prefetch_policy or "none"}"}}', [0, 0])
            sums[0] += r.counters.pages_prefetched
            sums[1] += r.wasted_pages
        for label, (p, w) in totals.items():
            if p > 0:
                metrics.set_counter("prefetch_accuracy" + label, max(p - w, 0) / p)
                metrics.set_counter("prefetch_waste_fraction" + label, w / p)
