"""ScenarioRuntime: executes a declarative :class:`ScenarioSpec`.

One runtime owns the simulator, the cluster (nodes + a full-mesh
network whose links are created on first use, with per-link overrides),
the shared fault plan, and every migrant process.  Each migrant walks
its :class:`MigrantSpec.path`:

* the first hop is a normal migration (``strategy.perform``);
* every further hop preempts the executor between trace events, quiesces
  the in-flight pages, and calls ``strategy.rehop`` — AMPoM and
  NoPrefetch leave a *transit deputy* holding the pages left behind
  (paper section 3.2), openMosix ships everything, FFA re-flushes to the
  file server.  The home deputy (system calls, home-resident pages)
  stays on ``path[0]`` for the whole journey and its reply channel is
  rebound at each hop — the home-dependency forwarding of section 3.2.

The legacy drivers :class:`repro.cluster.runner.MigrationRun` and
:class:`repro.cluster.multi.MultiMigrationRun` are thin wrappers over
this class; single-migrant two-node scenarios reproduce their event
sequence exactly (same events, same floats).
"""

from __future__ import annotations

import math
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
from ..obs.spans import MIGRANT_TRACK
from ..sim import Simulator, Timeout
from ..sim.rng import child_rng
from .cluster import Cluster
from .loadgen import BackgroundLoad
from .topology import FILE_SERVER, MigrantSpec, ScenarioSpec, resolve_strategy

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability


class ScenarioRuntime:
    """Builds and executes one :class:`ScenarioSpec`."""

    def __init__(self, spec: ScenarioSpec, obs: "Observability | None" = None) -> None:
        self.spec = spec
        self.config = spec.resolved_config()
        #: Optional repro.obs bundle; ``None`` (or an all-``None`` bundle)
        #: keeps every hook detached and the simulator's no-observer fast
        #: path intact.
        self.obs = obs if obs is not None and obs.active else None

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
        self._fleet_gauges = None  # lazy FleetGaugeSet (one per runtime)
        #: Optional re-targeting hook ``f(route, hop, now) -> node | None``
        #: installed by :class:`repro.cluster.scheduler.SchedulerDriver`;
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
        it (and the legacy driver never wrapped or traced it either)."""
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
        if plan is None or deputy is None or deputy.node_outage is not None:
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
        deputies = getattr(service, "deputies", None)
        if deputies is None or not hasattr(service, "transit_routes"):
            return
        for (node, born), deputy in zip(service.transit_routes(), deputies[1:]):
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
                raise ProcessLostError(
                    f"home node {home!r} crashed at t={now:.6f}; the deputy is "
                    "gone and openMosix's home dependency kills the migrant"
                )

        return check

    def _crash_handler(
        self,
        outcome: MigrationOutcome,
        home: str,
        home_since: float,
        journey: str | None = None,
    ):
        """Build the executor's ``on_crash_detect`` hook: fired when the
        retry protocol concludes a remote server is dead.  Home death is
        fatal (checked first); a dead transit deputy triggers chain repair
        — its pages are re-sourced from the home deputy and the route is
        dropped, so the pending retransmission reaches a live server.
        """
        plan = self.node_plan
        assert plan is not None

        def handle() -> None:
            now = self.sim.now
            if plan.crashed_in(home, home_since, now):
                # Probe-timeout escalation IS a failure detection: latency
                # runs from the crash instant to the protocol's conclusion.
                crash = plan.first_crash_in(home, home_since, now)
                if crash is not None:
                    self.node_stats.record_detection(now - crash, node=home, at=now)
                raise ProcessLostError(
                    f"home node {home!r} crashed at t={now:.6f}; the deputy is "
                    "gone and openMosix's home dependency kills the migrant"
                )
            service = outcome.page_service
            if not hasattr(service, "transit_routes"):
                return
            for node, born in list(service.transit_routes()):
                if plan.crashed_in(node, born, now):
                    crash = plan.first_crash_in(node, born, now)
                    if crash is not None:
                        self.node_stats.record_detection(now - crash, node=node, at=now)
                    lost = service.repair_route(node, now)
                    self.node_stats.chain_repairs += 1
                    self.node_stats.pages_rehomed += len(lost)
                    if journey is not None and self.obs is not None and self.obs.journeys is not None:
                        self.obs.journeys.record(
                            journey, "chain_repair", now, node=node, pages=len(lost)
                        )
                    if self.injection_log is not None:
                        self.injection_log.record(
                            now,
                            FaultEventKind.CHAIN_REPAIR,
                            channel="migrant",
                            detail=f"node={node} pages={len(lost)}",
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
        for proc in procs:
            self.sim.run_until_complete(proc, max_events=self.spec.max_events)
        for infod in self._infods.values():
            infod.stop()
        assert all(r is not None for r in self.results)
        return list(self.results)  # type: ignore[arg-type]

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
            path=migrant.path,
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
        tracer = obs.tracer if obs is not None else None
        jlog = obs.journeys if obs is not None else None
        single = len(self.spec.migrants) == 1
        # The journey key matches the spawned process name, which for
        # sustained phase-2 migrants is the phase-1 task name — the same
        # journey accumulates both phases' events.
        jname = migrant.name or ("scenario" if single else f"migrant-{index}")
        journey = jname if jlog is not None else None
        path = migrant.path
        # Mutable copy of the path: failure-aware re-targeting may rewrite
        # a hop whose destination crashed.  Same length, same start.
        route = list(path)
        plan = self.node_plan
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
        # when a SchedulerDriver installed a retarget hook, after the
        # destination's restart plus a backoff otherwise).  Every second
        # spent on aborted attempts lands in ``pre_freeze`` and from there
        # in the budget's freeze bucket, so the wall-time identity holds.
        pre_freeze = 0.0
        attempt = 0
        while True:
            home = route[0]
            if plan is not None and (
                plan.down(home, sim.now) or plan.crashed_in(home, 0.0, sim.now)
            ):
                # The process was still on its home node when that node
                # crashed: it dies before migrating at all.
                result = self._killed_before_migration(migrant, home, journey=journey)
                self.results[index] = result
                return result
            dst = route[1]
            if plan is not None and plan.down(dst, sim.now):
                # The destination is dark before the freeze even starts:
                # the connect attempt times out, then re-target or wait.
                wait = config.retry.timeout_s
                if tracer is not None:
                    tracer.complete(
                        MIGRANT_TRACK, "freeze", sim.now, wait, "freeze", aborted=True
                    )
                yield Timeout(wait)
                pre_freeze += wait
                attempt += 1
                if attempt > config.retry.max_attempts:
                    raise MigrationError(
                        f"migration of {migrant.workload.name} to {dst!r} kept "
                        f"aborting ({attempt} attempts): the destination outage "
                        "outlasts the retry budget"
                    )
                pre_freeze += yield from self._handle_abort(
                    route, 1, attempt - 1, "connect timeout", journey=journey
                )
                continue
            ctx = self._context(
                migrant, strategy, space, premigration, src=route[0], dst=dst
            )
            outcome = strategy.perform(ctx)
            if plan is None:
                break
            crash = plan.first_crash_in(dst, sim.now, sim.now + outcome.freeze_time)
            if crash is None:
                break
            # Destination died mid-freeze: roll back.  The time already
            # spent freezing is wasted (charged to freeze) and the pages
            # shipped so far are written off with the discarded outcome.
            wasted = crash - sim.now
            self.node_stats.abort_freeze_s += wasted
            self.node_stats.pages_abort_written_off += outcome.pages_shipped
            if wasted > 0.0:
                if tracer is not None:
                    tracer.complete(
                        MIGRANT_TRACK, "freeze", sim.now, wasted, "freeze", aborted=True
                    )
                yield Timeout(wasted)
                pre_freeze += wasted
            attempt += 1
            if attempt > config.retry.max_attempts:
                raise MigrationError(
                    f"migration of {migrant.workload.name} to {dst!r} kept "
                    f"aborting ({attempt} attempts): the destination outage "
                    "outlasts the retry budget"
                )
            pre_freeze += yield from self._handle_abort(
                route, 1, attempt - 1, f"crashed {wasted:.4g}s into the freeze",
                journey=journey,
            )
        self.outcomes[index] = outcome
        home = route[0]
        home_since = sim.now
        if plan is not None:
            self._arm_deputy(
                getattr(outcome.page_service, "deputy", None), home, home_since
            )

        infod = None
        if migrant.with_infod and outcome.policy is not None:
            infod = self._infod_for(dst=route[1], home=home)
            self.migrant_infods[index] = infod
        if self.fault_plan is not None:
            # Faults begin the instant the first migrant resumes; a later
            # activation may not postpone an earlier migrant's exposure.
            resume = sim.now + outcome.freeze_time
            if resume < self.fault_plan.active_from:
                self.fault_plan.activate(resume)
        if tracer is not None:
            # The freeze span pairs with the executor's ``budget.freeze +=
            # outcome.freeze_time`` charge — same float, recorded first, so
            # bucket_sums()["freeze"] reproduces the budget bit for bit.
            tracer.complete(
                MIGRANT_TRACK,
                "freeze",
                sim.now,
                outcome.freeze_time,
                "freeze",
                strategy=outcome.strategy,
                pages=outcome.pages_shipped,
            )
        if jlog is not None:
            jlog.record(
                jname, "freeze", sim.now,
                src=route[0], dst=route[1], hop=1,
                dur_s=outcome.freeze_time, pages=outcome.pages_shipped,
            )
        yield Timeout(outcome.freeze_time)

        retry = config.retry if self.fault_plan is not None else None
        retry_rng = None
        if self.fault_plan is not None:
            stream = "retry" if single else f"retry-{index}"
            retry_rng = child_rng(config.seed, stream)
        if retry is None and plan is not None and hasattr(outcome.page_service, "next_seq"):
            # Pure node-fault runs arm the reliable protocol too: requests
            # to a dead deputy go unanswered, and only the retransmission
            # loop turns that silence into detection + repair.  FFA has no
            # sequence IDs — it participates through aborts and kills only.
            retry = config.retry
            stream = "retry" if single else f"retry-{index}"
            retry_rng = child_rng(config.seed, stream)

        checker = None
        observers = ()
        carry = None
        run_time_base = 0.0
        hop = 1
        executor = None
        leg_start = sim.now
        try:
            while True:
                last = hop == len(route) - 1
                leg_start = sim.now
                preempt_at = None if last else leg_start + migrant.hop_delays[hop - 1]
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
                    preempt_at=preempt_at,
                    carry=carry,
                    run_time_base=run_time_base,
                )
                if carry is None:
                    executor.budget.freeze += pre_freeze
                    if config.checks.enabled:
                        checker = self._make_checker(index, outcome, executor)
                    observers = self._attach_observers(
                        outcome, executor, home=home, dst=route[hop]
                    )
                else:
                    executor.checker = checker
                if plan is not None:
                    executor.hazard = self._hazard_for(
                        route[hop], leg_start - outcome.freeze_time,
                        home, home_since, infod,
                    )
                    executor.on_crash_detect = self._crash_handler(
                        outcome, home, home_since, journey=journey
                    )
                proc = executor.start()
                result = yield proc
                if proc.error is not None:
                    raise proc.error
                if not executor.preempted:
                    break

                # --- re-migration hop (section 3.2) -----------------------
                # Quiesce on the current node: absorb or write off every page
                # still on the wire, then hand the trace to the next leg.
                yield from self._quiesce(executor, outcome)
                run_time_base += sim.now - leg_start
                src = route[hop]
                hop += 1
                if plan is not None:
                    # Failure-aware re-hop: never freeze toward a node that
                    # is currently dark — re-target or wait out its restart.
                    rehop_attempt = 0
                    while plan.down(route[hop], sim.now):
                        rehop_attempt += 1
                        if rehop_attempt > config.retry.max_attempts:
                            raise MigrationError(
                                f"re-migration of {migrant.workload.name} to "
                                f"{route[hop]!r} kept aborting "
                                f"({rehop_attempt} attempts): the destination "
                                "outage outlasts the retry budget"
                            )
                        waited = yield from self._handle_abort(
                            route, hop, rehop_attempt - 1, "rehop target dark",
                            journey=journey,
                        )
                        executor.budget.freeze += waited
                hop_ctx = self._context(
                    migrant, strategy, space, premigration, src=src, dst=route[hop]
                )
                strategy.rehop(hop_ctx, outcome)
                if plan is not None:
                    self._arm_transit_deputies(outcome)
                if tracer is not None:
                    tracer.complete(
                        MIGRANT_TRACK,
                        "freeze",
                        sim.now,
                        outcome.freeze_time,
                        "freeze",
                        strategy=outcome.strategy,
                        pages=outcome.pages_shipped,
                    )
                if jlog is not None:
                    jlog.record(
                        jname, "freeze", sim.now,
                        src=src, dst=route[hop], hop=hop,
                        dur_s=outcome.freeze_time, pages=outcome.pages_shipped,
                    )
                if infod is not None:
                    if single:
                        self._stop_infod(dst=src, home=route[0])
                    infod = None
                if migrant.with_infod and outcome.policy is not None:
                    infod = self._infod_for(dst=route[hop], home=route[0])
                    self.migrant_infods[index] = infod
                if obs is not None:
                    # A transit deputy may have appeared; hand it the bundle.
                    for deputy in getattr(outcome.page_service, "deputies", ()):
                        deputy.obs = obs
                carry = executor.carry_out()
                yield Timeout(outcome.freeze_time)
        except ProcessLostError as lost:
            result = self._teardown_killed(
                migrant, outcome, executor, checker, observers, infod,
                lost, run_time_base, leg_start, single, journey=journey,
            )
            self.results[index] = result
            return result

        assert isinstance(result, ExecutionResult)
        if len(route) > 2:
            result.extra["hops"] = float(len(route) - 1)
        if checker is not None:
            checker.final_audit()
            sim.remove_observer(checker.on_sim_event)
        for callback in observers:
            sim.remove_observer(callback)
        if single and infod is not None:
            self._stop_infod(dst=route[-1], home=route[0])
        if obs is not None and obs.metrics is not None:
            self._finalize_metrics(obs.metrics, result)
        if jlog is not None:
            jlog.finish(jname, sim.now, "completed", hops=len(route) - 1)
        self.results[index] = result
        return result

    def _quiesce(self, executor: MigrantExecutor, outcome: MigrationOutcome):
        """Drain the preempted leg's wire state before re-migrating:
        absorb and copy every page that still arrives (waiting for the
        last finite arrival, charged as stall), then write off lost pages
        (infinite arrival) back to REMOTE — they re-fetch on demand from
        whichever deputy holds them after the hop."""
        sim = self.sim
        res = outcome.residency
        tr = executor._tracer
        executor._acquire_cpu()
        try:
            while True:
                if res.in_flight_map:
                    res.absorb_arrivals(sim.now)
                if res.buffered_set:
                    yield from executor._copy_buffered(res)
                finite = [t for t in res.in_flight_map.values() if not math.isinf(t)]
                if not finite:
                    break
                wait = max(max(finite) - sim.now, 0.0)
                if wait > 0.0:
                    t0 = sim.now if tr is not None else 0.0
                    yield Timeout(wait)
                    executor.budget.stall += wait
                    if tr is not None:
                        tr.complete(MIGRANT_TRACK, "stall", t0, wait, "stall")
        finally:
            executor._release_cpu()
        lost = res.write_off_lost()
        if lost:
            executor.counters.prefetch_writeoffs += len(lost)
            for vpn in lost:
                executor.discard_fetch(vpn)

    # ------------------------------------------------------------------
    # node-failure recovery paths
    # ------------------------------------------------------------------
    def _handle_abort(
        self, route: list, hop: int, attempt: int, detail: str,
        journey: str | None = None,
    ):
        """Recover an aborted/unreachable migration hop: re-target at a
        survivor when a retarget hook is installed, otherwise wait out the
        destination's restart plus an exponential backoff.  Yields the
        wait in simulated time and *returns* it so the caller can charge
        it to the freeze bucket (keeping the wall-time identity)."""
        sim = self.sim
        plan = self.node_plan
        assert plan is not None
        dst = route[hop]
        jlog = self.obs.journeys if self.obs is not None else None
        self.node_stats.migration_aborts += 1
        if journey is not None and jlog is not None:
            jlog.record(journey, "abort", sim.now, dst=dst, hop=hop, detail=detail)
        if self.injection_log is not None:
            self.injection_log.record(
                sim.now,
                FaultEventKind.MIGRATION_ABORT,
                channel="migrant",
                detail=f"dst={dst} {detail}",
            )
        target = self.retarget(route, hop, sim.now) if self.retarget is not None else None
        if target is not None and target != dst:
            route[hop] = target
            self.node_stats.retargets += 1
            if journey is not None and jlog is not None:
                jlog.record(
                    journey, "retarget", sim.now, hop=hop, src=dst, dst=target
                )
            if self.injection_log is not None:
                self.injection_log.record(
                    sim.now,
                    FaultEventKind.RETARGET,
                    channel="migrant",
                    detail=f"{dst}->{target}",
                )
            return 0.0
        wait = self.config.retry.timeout_for(attempt, 0.0)
        if plan.down(dst, sim.now):
            wait += plan.restart_time(dst, sim.now) - sim.now
        tracer = self.obs.tracer if self.obs is not None else None
        if tracer is not None:
            tracer.complete(MIGRANT_TRACK, "freeze", sim.now, wait, "freeze", aborted=True)
        yield Timeout(wait)
        return wait

    def _record_kill(self, detail: str, journey: str | None = None) -> None:
        self.node_stats.kills += 1
        if journey is not None and self.obs is not None and self.obs.journeys is not None:
            self.obs.journeys.finish(journey, self.sim.now, "killed", detail=detail)
        if self.injection_log is not None:
            self.injection_log.record(
                self.sim.now, FaultEventKind.KILL, channel="migrant", detail=detail
            )

    def _killed_before_migration(
        self, migrant: MigrantSpec, home: str, journey: str | None = None
    ) -> ExecutionResult:
        """The home node crashed while the process still lived on it: the
        process dies without ever migrating.  Nothing to tear down — no
        outcome, no ledgers — just a zeroed result flagged killed."""
        from ..metrics.counters import Counters
        from ..metrics.timeline import TimeBudget

        self._record_kill(f"home {home} crashed before migration", journey=journey)
        return ExecutionResult(
            strategy=migrant.strategy,
            workload=migrant.workload.name,
            memory_bytes=migrant.workload.memory_bytes,
            freeze_time=0.0,
            run_time=0.0,
            budget=TimeBudget(),
            counters=Counters(),
            extra={"killed": 1.0},
        )

    def _teardown_killed(
        self,
        migrant: MigrantSpec,
        outcome: MigrationOutcome,
        executor: MigrantExecutor,
        checker,
        observers,
        infod,
        lost: ProcessLostError,
        run_time_base: float,
        leg_start: float,
        single: bool,
        journey: str | None = None,
    ) -> ExecutionResult:
        """Clean teardown after a whole-node crash killed the migrant.

        The ledgers are settled so every invariant still balances: pages
        lost on the wire are written off back to REMOTE, and every
        surviving deputy forfeits the pages it held for the dead process
        (the origin reclaims that memory).  The final audit runs on the
        settled state — a kill is a *modelled* outcome, not a checker
        violation."""
        sim = self.sim
        self._record_kill(str(lost).splitlines()[0], journey=journey)
        written_off = outcome.residency.write_off_lost()
        if written_off:
            executor.counters.prefetch_writeoffs += len(written_off)
            for vpn in written_off:
                executor.discard_fetch(vpn)
        service = outcome.page_service
        deputies = getattr(service, "deputies", None)
        if deputies is None:
            deputy = getattr(service, "deputy", None)
            deputies = [deputy] if deputy is not None else []
        for deputy in deputies:
            deputy.hpt.forfeit_all()
        executor._collect_fault_stats()
        run_time = run_time_base + (sim.now - leg_start)
        result = ExecutionResult(
            strategy=outcome.strategy,
            workload=migrant.workload.name,
            memory_bytes=migrant.workload.memory_bytes,
            freeze_time=executor.budget.freeze,
            run_time=run_time,
            budget=executor.budget,
            counters=executor.counters,
            wasted_pages=executor.wasted_pages(),
            extra=dict(outcome.extra),
            prefetch_policy=getattr(outcome.policy, "name", "") or "",
        )
        result.extra["killed"] = 1.0
        if checker is not None:
            pending = getattr(executor, "_pending_fault", None)
            if pending is not None:
                checker.note_interrupted_fault(pending)
            checker.final_audit()
            sim.remove_observer(checker.on_sim_event)
        for callback in observers:
            sim.remove_observer(callback)
        if single and infod is not None:
            for key, daemon in list(self._infods.items()):
                if daemon is infod:
                    self._infods.pop(key)
                    daemon.stop()
        return result

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
        self,
        outcome: MigrationOutcome,
        executor: MigrantExecutor,
        home: str = "",
        dst: str = "",
    ):
        """Register obs gauge samplers / inspector probes with the
        simulator; returns the observer callbacks to detach at run end.

        ``home``/``dst`` name the migrant's home and first-destination
        nodes for fleet telemetry: armed ``obs.fleet`` samples the deputy
        queue depth under ``home`` and the resident/remote/in-flight page
        counts under ``dst``, aggregated node-wide when several migrants
        share a node."""
        obs = self.obs
        if obs is None:
            return ()
        from ..obs import GaugeSampler
        from ..obs.spans import DEPUTY_TRACK

        sim = self.sim
        observers = []
        deputy = getattr(outcome.page_service, "deputy", None)
        if deputy is not None and (obs.tracer is not None or obs.metrics is not None):
            # Only span/metrics instruments read deputy.obs; leaving it
            # unset for fleet/journey-only bundles keeps the deputy's
            # per-request hot path on its no-observer fast branch.
            deputy.obs = obs
        fleet = obs.fleet
        if fleet is not None:
            # Fleet gauges aggregate every live migrant on a node, so they
            # stay attached for the whole run (the runtime is single-use)
            # rather than detaching with the migrant that created them.
            # One FleetGaugeSet carries every series behind a single
            # simulator observer so the per-event cost stays flat as
            # migrants accumulate.
            from ..obs.fleet import FleetGaugeSet

            gauges = self._fleet_gauges
            if gauges is None:
                gauges = self._fleet_gauges = FleetGaugeSet(
                    fleet, fleet.interval_s
                )
                sim.add_observer(gauges.on_sim_event)
            if deputy is not None and home:
                queue = self._fleet_deputies.setdefault(home, [])
                queue.append(deputy)
                if ("deputy", home) not in self._fleet_tracked:
                    self._fleet_tracked.add(("deputy", home))
                    gauges.add(
                        home, "deputy_queue_depth_s",
                        lambda q=queue: sum(
                            max(0.0, d.busy_until - sim.now) for d in q
                        ),
                    )
            if dst:
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
                            dst, series,
                            lambda rs=residencies, a=attr: float(
                                sum(getattr(r, a) for r in rs)
                            ),
                        )
        if deputy is not None and (obs.metrics is not None or obs.tracer is not None):
            sampler = GaugeSampler(
                "deputy_queue_depth_s",
                DEPUTY_TRACK,
                lambda: max(0.0, deputy.busy_until - sim.now),
                obs.sample_interval_s,
                metrics=obs.metrics,
                tracer=obs.tracer,
            )
            sim.add_observer(sampler.on_sim_event)
            observers.append(sampler.on_sim_event)
        inspector = obs.inspector
        if inspector is not None:
            counters = executor.counters
            budget = executor.budget
            inspector.add_probe("major_faults", lambda: float(counters.major_faults))
            inspector.add_probe(
                "prefetched", lambda: float(counters.pages_prefetched)
            )
            inspector.add_probe("stall_s", lambda: budget.stall)
            inspector.add_probe("compute_s", lambda: budget.compute)
            if deputy is not None:
                inspector.add_probe(
                    "deputy_queue_s", lambda: max(0.0, deputy.busy_until - sim.now)
                )
            sim.add_observer(inspector.on_sim_event)
            observers.append(inspector.on_sim_event)
        return observers

    @staticmethod
    def _finalize_metrics(metrics, result: ExecutionResult) -> None:
        """Fold end-of-run prefetch accuracy/waste scalars into the registry.

        Besides the aggregate counters, the accuracy/waste pair is also
        recorded under a ``{policy="<name>"}``-labeled counter so multi-
        policy sweeps (the arena) can tell the policies apart in one
        registry.
        """
        c = result.counters
        prefetched = c.pages_prefetched
        wasted = result.wasted_pages
        metrics.set_counter("pages_prefetched", float(prefetched))
        metrics.set_counter("pages_demand_fetched", float(c.pages_demand_fetched))
        metrics.set_counter("wasted_pages", float(wasted))
        label = result.prefetch_policy or "none"
        if prefetched > 0:
            useful = max(prefetched - wasted, 0)
            metrics.set_counter("prefetch_accuracy", useful / prefetched)
            metrics.set_counter("prefetch_waste_fraction", wasted / prefetched)
            metrics.set_counter(
                f'prefetch_accuracy{{policy="{label}"}}', useful / prefetched
            )
            metrics.set_counter(
                f'prefetch_waste_fraction{{policy="{label}"}}', wasted / prefetched
            )
