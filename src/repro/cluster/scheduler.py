"""Load-balancing scheduler built on cheap migrations (paper section 7).

The paper's conclusion: "new scheduling policies can make use of AMPoM on
openMosix to perform more aggressive migrations since the performance
penalty of suboptimal decisions has been dramatically decreased."

This module provides a deliberately simple openMosix-style balancer over a
cluster of CPU-bound tasks so that claim can be demonstrated (see
``examples/load_balancing.py`` and the scheduler ablation bench):

* tasks progress in fixed time slices at their node's fair CPU share;
* periodically, the balancer moves one task from the most- to the
  least-loaded node whenever the load gap exceeds a threshold;
* a migration freezes the task for a strategy-dependent time — the
  openMosix cost model ships the task's whole dirty memory, the AMPoM cost
  model ships three pages plus the MPT (plus a working-set refetch that
  overlaps execution and is therefore *not* freeze).

The scheduler reports makespan, migration count, and total frozen time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..sim import Simulator, Timeout
from ..units import pages_for
from .cluster import Cluster
from .policy import MigrationPolicy, ThresholdPolicy, make_policy, pick_task


@dataclass(slots=True)
class Task:
    """A CPU-bound process with a dirty address space."""

    name: str
    cpu_seconds: float
    memory_bytes: int
    node: str
    #: Fraction of the address space a migrant actually re-touches soon
    #: after migration (drives AMPoM's post-migration paging cost).
    working_set_fraction: float = 1.0
    #: Simulated time the process arrives (sustained-load scenarios feed
    #: arrival-stream draws in here; 0.0 keeps the classic batch start).
    #: Before its arrival a task contributes no load and cannot migrate.
    arrival_s: float = 0.0
    remaining: float = field(init=False)
    migrations: int = field(default=0, init=False)
    frozen_time: float = field(default=0.0, init=False)
    finished_at: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.cpu_seconds <= 0 or self.memory_bytes <= 0:
            raise ConfigurationError(f"invalid task {self.name!r}")
        if not (0.0 < self.working_set_fraction <= 1.0):
            raise ConfigurationError("working_set_fraction must be in (0, 1]")
        if self.arrival_s < 0.0:
            raise ConfigurationError(f"arrival_s must be >= 0: {self.arrival_s}")
        self.remaining = self.cpu_seconds


@dataclass(frozen=True, slots=True)
class MigrationDecision:
    """One placement decision taken by the balancer: move ``task`` from
    ``src`` to ``dst`` at simulated ``time``.  The decision log is what
    :class:`SchedulerDriver` turns into executable migration paths."""

    time: float
    task: str
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class SchedulerReport:
    """Outcome of one scheduling simulation."""

    makespan: float
    migrations: int
    total_frozen_time: float
    per_task_completion: dict[str, float]


class ClusterScheduler:
    """Periodic greedy balancer with a pluggable migration cost model."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        tasks: list[Task],
        config: SimulationConfig,
        freeze_model: str = "ampom",
        balance_interval: float = 1.0,
        load_gap_threshold: int = 2,
        time_slice: float = 0.1,
        min_task_lifetime: float = 0.0,
        gossip=None,
        node_plan=None,
        policy: MigrationPolicy | None = None,
    ) -> None:
        if freeze_model not in ("ampom", "openmosix", "none"):
            raise ConfigurationError(f"unknown freeze model {freeze_model!r}")
        self.sim = sim
        self.cluster = cluster
        self.tasks = tasks
        self.config = config
        self.freeze_model = freeze_model
        self.balance_interval = balance_interval
        self.load_gap_threshold = load_gap_threshold
        self.time_slice = time_slice
        #: Conservative policy knob: only tasks whose total CPU demand
        #: reaches this value are eligible to migrate.  Models the
        #: lifetime-threshold rule of Harchol-Balter & Downey that the
        #: paper's introduction cites as the kind of conservatism expensive
        #: migration forces ("[10] migrates a process only if its lifetime
        #: exceeds a certain threshold").
        self.min_task_lifetime = min_task_lifetime
        #: Optional :class:`repro.cluster.gossip.GossipLoadMap`.  When set,
        #: balancing is decentralized and sender-initiated, as in real
        #: openMosix: each node compares its own load against its (partial,
        #: stale) gossip view and offloads to the least-loaded node it
        #: knows of.  When ``None``, the balancer is omniscient.
        self.gossip = gossip
        #: Optional :class:`repro.faults.NodeFaultPlan`.  The central round
        #: never targets a node that is currently down (the omniscient
        #: balancer sees crashes instantly); the gossip round instead skips
        #: peers the sender *suspects*, so detection latency is part of the
        #: modelled cost.
        self.node_plan = node_plan
        #: Trigger policy for the decentralized (gossip) round.  ``None``
        #: defaults (lazily, on first gossip round) to the openMosix
        #: threshold rule parameterized by ``load_gap_threshold``; see
        #: :mod:`repro.cluster.policy`.
        self.policy = policy
        self.migrations = 0
        self.total_frozen_time = 0.0
        #: Optional decision hook ``f(decision, view)`` fired on every
        #: placement decision with the gossip-view snapshot that justified
        #: it (``None`` for omniscient central rounds).  Pure observer —
        #: journey traces subscribe here; the hook must not mutate state.
        self.on_decision = None
        #: Every placement decision in the order it was taken.
        self.decisions: list[MigrationDecision] = []
        self._pending_freeze: dict[str, float] = {}
        for task in tasks:
            if task.node not in cluster.nodes:
                raise ConfigurationError(f"task {task.name!r} on unknown node {task.node!r}")
        #: Per-node count of admitted, unfinished tasks.  Arrivals are
        #: admitted lazily on read (``_admit``), from a cursor over the
        #: tasks in arrival order; finishing and migrating adjust it.
        self._live: dict[str, int] = {name: 0 for name in cluster.nodes}
        self._by_arrival = sorted(tasks, key=lambda t: t.arrival_s)
        self._admitted = 0

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def migration_freeze(self, task: Task) -> float:
        """Freeze time for migrating ``task`` under the chosen mechanism."""
        hw = self.config.hardware
        bw = self.config.network.bandwidth_bps
        pages = pages_for(task.memory_bytes, hw.page_size)
        if self.freeze_model == "none":
            return 0.0
        if self.freeze_model == "openmosix":
            return hw.migration_setup_time + pages * hw.page_size / bw
        # AMPoM: three pages + MPT transfer + MPT install.
        mpt_bytes = pages * hw.mpt_entry_bytes
        return (
            hw.migration_setup_time
            + (3 * hw.page_size + mpt_bytes) / bw
            + pages * hw.mpt_install_time_per_entry
        )

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Count every task whose arrival time has been reached.  Runs
        before every count adjustment, so a finish or move always undoes
        an arrival that was already counted."""
        pending = self._by_arrival
        i = self._admitted
        now = self.sim.now
        while i < len(pending) and pending[i].arrival_s <= now:
            self._live[pending[i].node] += 1
            i += 1
        self._admitted = i

    def _loads(self) -> dict[str, int]:
        """Arrived, unfinished tasks per node (a fresh dict per call)."""
        self._admit()
        return dict(self._live)

    def load(self, name: str) -> int:
        """Arrived, unfinished tasks on node ``name``."""
        self._admit()
        return self._live[name]

    def _task_process(self, task: Task):
        if task.arrival_s > 0.0:
            yield Timeout(task.arrival_s)
        while task.remaining > 0:
            # Serve a pending migration freeze before computing further.
            freeze = self._pending_freeze.pop(task.name, 0.0)
            if freeze > 0.0:
                yield Timeout(freeze)
            node = self.cluster.node(task.node)  # may have been migrated
            node.cpu.acquire()
            stretch = node.cpu.stretch()
            work = min(task.remaining, self.time_slice)
            yield Timeout(work * stretch)
            node.cpu.charge(work)
            node.cpu.release()
            task.remaining -= work
        self._admit()
        self._live[task.node] -= 1
        task.finished_at = self.sim.now

    def _migrate(self, task: Task, dest: str, view: dict | None = None) -> None:
        freeze = self.migration_freeze(task)
        decision = MigrationDecision(
            time=self.sim.now, task=task.name, src=task.node, dst=dest
        )
        self.decisions.append(decision)
        if self.on_decision is not None:
            self.on_decision(decision, view)
        self._admit()
        self._live[task.node] -= 1
        self._live[dest] += 1
        task.node = dest
        task.migrations += 1
        task.frozen_time += freeze
        self._pending_freeze[task.name] = freeze
        self.migrations += 1
        self.total_frozen_time += freeze

    def _eligible(self, node: str) -> list[Task]:
        now = self.sim.now
        return [
            t
            for t in self.tasks
            if t.node == node
            and t.finished_at is None
            and t.arrival_s <= now
            and t.cpu_seconds >= self.min_task_lifetime
        ]

    def _alive(self, names) -> list[str]:
        """Nodes not currently inside a crash window (all, if no plan)."""
        if self.node_plan is None:
            return list(names)
        now = self.sim.now
        return [n for n in names if not self.node_plan.down(n, now)]

    def _central_round(self) -> None:
        """Omniscient greedy balancing (exact global loads).

        Ties break on node/task name so the decision log is a pure
        function of the seed — and so the decentralized threshold policy
        with a fully converged view reproduces these exact decisions
        while the overload is confined to one node
        (``tests/cluster/test_policy.py``; once several nodes exceed the
        gap at once the central round still serializes one move per round
        while decentralized senders act concurrently, a documented
        divergence).
        """
        loads = self._loads()
        alive = self._alive(loads)
        if len(alive) < 2:
            return
        busiest = max(alive, key=lambda n: (loads[n], n))
        idlest = min(alive, key=lambda n: (loads[n], n))
        if loads[busiest] - loads[idlest] < self.load_gap_threshold:
            return
        candidates = self._eligible(busiest)
        if not candidates:
            return
        # Move the task with the most remaining work (it benefits most).
        self._migrate(pick_task(candidates), idlest)

    def _gossip_round(self) -> None:
        """Decentralized, sender-initiated balancing from gossip views.

        Each node decides alone: its :class:`MigrationPolicy` sees only the
        node's own load and its (partial, stale, suspicion-filtered) gossip
        view, never the global snapshot.
        """
        policy = self.policy
        if policy is None:
            policy = self.policy = ThresholdPolicy(
                load_gap_threshold=self.load_gap_threshold
            )
        loads = self._loads()
        live = self._live
        for node in sorted(self.cluster.nodes):
            if not live[node]:
                # Nothing to offload.  The live count, not the snapshot:
                # a task received earlier this round is eligible.
                continue
            if self.node_plan is not None and self.node_plan.down(node, self.sim.now):
                continue  # a dead node takes no decisions
            view = self.gossip.view(node)
            if hasattr(self.gossip, "suspects"):
                suspected = self.gossip.suspects(node)
                view = {n: load for n, load in view.items() if n not in suspected}
            if not view:
                continue
            target = policy.select_target(node, loads[node], view)
            if target is None:
                continue
            candidates = self._eligible(node)
            if not candidates:
                continue
            task = policy.select_task(candidates)
            self._migrate(task, target, view=view)
            loads[node] -= 1

    def _balancer(self):
        while any(t.finished_at is None for t in self.tasks):
            yield Timeout(self.balance_interval)
            if self.gossip is None:
                self._central_round()
            else:
                self._gossip_round()

    # ------------------------------------------------------------------
    def run(self) -> SchedulerReport:
        """Execute all tasks to completion; return the report."""
        procs = [
            self.sim.spawn(self._task_process(t), name=f"task-{t.name}")
            for t in self.tasks
        ]
        self.sim.spawn(self._balancer(), name="balancer")
        for proc in procs:
            self.sim.run_until_complete(proc)
        return SchedulerReport(
            makespan=self.sim.now,
            migrations=self.migrations,
            total_frozen_time=self.total_frozen_time,
            per_task_completion={
                t.name: (t.finished_at if t.finished_at is not None else float("nan"))
                for t in self.tasks
            },
        )


# ----------------------------------------------------------------------
# From placement decisions to executed migrations
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SchedulerDriveResult:
    """Outcome of one :meth:`SchedulerDriver.execute` run."""

    report: SchedulerReport
    decisions: list[MigrationDecision]
    migrants: tuple
    results: list


class SchedulerDriver:
    """Executes a balancer's placement decisions as real migrations.

    The coarse :class:`ClusterScheduler` treats migration as a pure freeze
    cost; the paper's claim (section 7) is that AMPoM makes *aggressive*
    placement affordable.  This driver closes the loop: it runs the
    balancer over placement tasks derived from real workloads (phase 1),
    converts its decision log into :class:`MigrantSpec` paths — chained
    hops for a task moved repeatedly — and executes those on the shared
    :class:`NodeGraph` with full remote-paging simulation (phase 2).
    """

    def __init__(
        self,
        graph,
        placements,
        strategy_factory,
        config: SimulationConfig | None = None,
        *,
        freeze_model: str = "ampom",
        balance_interval: float = 1.0,
        load_gap_threshold: int = 2,
        time_slice: float = 0.1,
        min_task_lifetime: float = 0.0,
        gossip=None,
        policy: "str | MigrationPolicy | None" = None,
        decentralized: bool = False,
        gossip_interval_s: float = 1.0,
        arrival_times=None,
        task_cpu_seconds=None,
    ) -> None:
        #: ``placements`` is a sequence of (workload, home_node) pairs.
        self.graph = graph
        self.placements = list(placements)
        self.strategy_factory = strategy_factory
        self.config = config if config is not None else SimulationConfig()
        self.freeze_model = freeze_model
        self.balance_interval = balance_interval
        self.load_gap_threshold = load_gap_threshold
        self.time_slice = time_slice
        self.min_task_lifetime = min_task_lifetime
        self.gossip = gossip
        #: Policy name (resolved via :func:`repro.cluster.policy.make_policy`)
        #: or a ready :class:`MigrationPolicy` instance; ``None`` keeps the
        #: threshold default.  Only consulted on decentralized rounds.
        self.policy = policy
        #: When true (and no external ``gossip`` was supplied), phase 1
        #: builds its own :class:`repro.cluster.gossip.GossipLoadMap` on the
        #: plan simulator, so every trigger decision reads a node-local,
        #: message-propagated view instead of the omniscient snapshot.
        self.decentralized = decentralized
        self.gossip_interval_s = gossip_interval_s
        #: Optional per-placement arrival times (sustained-load streams);
        #: ``None`` keeps the classic everyone-at-t=0 batch.
        self.arrival_times = None if arrival_times is None else list(arrival_times)
        #: Optional per-placement CPU demand override.  Sustained scenarios
        #: draw lifetimes from the arrival stream instead of deriving them
        #: from the workload trace (whose estimate is milliseconds — far
        #: too short to build up sustained load).
        self.task_cpu_seconds = (
            None if task_cpu_seconds is None else list(task_cpu_seconds)
        )
        #: Optional :class:`repro.obs.Observability` bundle.  Set by
        #: :meth:`execute` (or directly, for plan-only callers such as the
        #: figure generators): phase 1 feeds armed fleet telemetry and
        #: journey traces, phase 2 hands the bundle to the runtime.  Pure
        #: observers — armed plans decide identically to bare ones.
        self.obs = None
        self.runtime = None
        if not self.placements:
            raise ConfigurationError("SchedulerDriver needs at least one placement")
        for label, override in (
            ("arrival_times", self.arrival_times),
            ("task_cpu_seconds", self.task_cpu_seconds),
        ):
            if override is not None and len(override) != len(self.placements):
                raise ConfigurationError(
                    f"{label} has {len(override)} entries for "
                    f"{len(self.placements)} placements"
                )
        names = set(graph.nodes)
        for i, (_workload, home) in enumerate(self.placements):
            if home not in names:
                raise ConfigurationError(
                    f"placement {i} starts on unknown node {home!r}"
                )

    # ------------------------------------------------------------------
    def plan(self) -> tuple[SchedulerReport, list[MigrationDecision]]:
        """Phase 1: run the balancer on placement tasks; return its report
        and decision log.  Uses a throwaway simulator — the decisions, not
        the coarse timing, feed phase 2."""
        sim = Simulator()
        own_gossip = None
        try:
            cluster = Cluster(
                sim, self.config, self.graph.nodes, link_specs=self.graph.spec_overrides()
            )
            node_plan = None
            if self.config.node_faults.active:
                from ..faults import NodeFaultPlan
                from .topology import FILE_SERVER

                # Same spec + seed as the runtime's plan, so phase 1 balances
                # around the very crash schedule phase 2 will execute under.
                node_plan = NodeFaultPlan(
                    self.config.node_faults,
                    seed=self.config.seed,
                    nodes=self.graph.nodes,
                    protected={FILE_SERVER} if FILE_SERVER in self.graph.nodes else (),
                )
            tasks = self._make_tasks()
            gossip = self.gossip
            if self.decentralized and gossip is None:
                from .gossip import GossipLoadMap

                # Bound to the plan simulator: load updates are real messages
                # on the plan's links, and every view lags accordingly.
                own_gossip = GossipLoadMap(
                    sim,
                    cluster,
                    load_of=lambda name: scheduler.load(name),
                    interval=self.gossip_interval_s,
                    seed=self.config.seed,
                    node_plan=node_plan,
                )
                gossip = own_gossip
            scheduler = ClusterScheduler(
                sim,
                cluster,
                tasks,
                self.config,
                freeze_model=self.freeze_model,
                balance_interval=self.balance_interval,
                load_gap_threshold=self.load_gap_threshold,
                time_slice=self.time_slice,
                min_task_lifetime=self.min_task_lifetime,
                gossip=gossip,
                node_plan=node_plan,
                policy=self._resolve_policy(),
            )
            jlog = self.obs.journeys if self.obs is not None else None
            if jlog is not None:
                # One journey per task, opened at its arrival; every placement
                # decision is recorded with the (suspicion-filtered) gossip
                # view that justified it, so the causal chain "this view led
                # to this move" is reconstructable per migrant.
                for task in tasks:
                    jlog.start(
                        task.name, task.arrival_s, node=task.node,
                        cpu_seconds=task.cpu_seconds, memory_bytes=task.memory_bytes,
                    )

                def on_decision(decision, view):
                    jlog.record(
                        decision.task, "decision", decision.time,
                        src=decision.src, dst=decision.dst,
                        view=None if view is None else dict(view),
                    )

                scheduler.on_decision = on_decision
            self._spawn_monitors(sim, scheduler)
            report = scheduler.run()
        finally:
            # Phase 1 is over, finished or failed.  Stopping the gossip
            # daemons also drops their load sampler, which closes over the
            # scheduler; closing the simulator drops the remaining wake-ups.
            if own_gossip is not None:
                own_gossip.stop()
            sim.close()
        if jlog is not None:
            for name, done_at in report.per_task_completion.items():
                if done_at == done_at:  # non-NaN: the plan completed it
                    jlog.record(name, "plan_complete", done_at)
        return report, list(scheduler.decisions)

    def _make_tasks(self) -> list[Task]:
        """Placement pairs -> scheduler tasks (arrival/lifetime overrides
        applied when a sustained-load stream drives the run)."""
        tasks = []
        for i, (workload, home) in enumerate(self.placements):
            cpu = None if self.task_cpu_seconds is None else self.task_cpu_seconds[i]
            if cpu is None:
                if workload.address_space is None:
                    # The estimate needs the trace; the runtime re-runs
                    # setup() later (allocation is deterministic, so this
                    # is free).
                    workload.setup()
                cpu = workload.total_compute_estimate()
            tasks.append(
                Task(
                    name=f"task-{i}",
                    cpu_seconds=cpu,
                    memory_bytes=workload.memory_bytes,
                    node=home,
                    arrival_s=0.0 if self.arrival_times is None else self.arrival_times[i],
                )
            )
        return tasks

    def _resolve_policy(self) -> "MigrationPolicy | None":
        if self.policy is None or isinstance(self.policy, MigrationPolicy):
            return self.policy
        if self.policy == "threshold":
            # Honor the driver-level gap knob rather than the class default.
            return make_policy("threshold", load_gap_threshold=self.load_gap_threshold)
        return make_policy(self.policy)

    def _spawn_monitors(self, sim: Simulator, scheduler: ClusterScheduler) -> None:
        """Hook for subclasses: spawn observation processes on the plan
        simulator (e.g. the sustained driver's utilization sampler)."""

    def migrant_specs(self, decisions) -> tuple:
        """Convert a decision log into per-task migration paths.

        Consecutive moves of one task chain into a multi-hop path; the
        chain is cut at the first revisit (the runtime's deputy model
        does not re-absorb a node already holding a transit deputy)."""
        from .topology import MigrantSpec

        by_task: dict[str, list[MigrationDecision]] = {}
        for decision in decisions:
            by_task.setdefault(decision.task, []).append(decision)
        specs = []
        for i, (workload, home) in enumerate(self.placements):
            moves = by_task.get(f"task-{i}", [])
            if not moves:
                continue
            path = [home]
            times: list[float] = []
            for decision in moves:
                if decision.dst in path:
                    break
                path.append(decision.dst)
                times.append(decision.time)
            if len(path) < 2:
                continue
            hop_delays = tuple(
                max(times[k + 1] - times[k], self.time_slice)
                for k in range(len(path) - 2)
            )
            specs.append(
                MigrantSpec(
                    workload=workload,
                    strategy=self.strategy_factory,
                    path=tuple(path),
                    start_s=times[0],
                    hop_delays=hop_delays,
                    name=f"task-{i}",
                )
            )
        return tuple(specs)

    def execute(self, obs=None) -> SchedulerDriveResult:
        """Phases 1 + 2: plan, then simulate every decided migration in
        one :class:`ScenarioRuntime`."""
        from .session import ScenarioRuntime
        from .topology import ScenarioSpec

        if obs is not None:
            self.obs = obs
        obs = self.obs
        report, decisions = self.plan()
        migrants = self.migrant_specs(decisions)
        jlog = obs.journeys if obs is not None else None
        if jlog is not None:
            # Tasks the plan completed without ever migrating terminate
            # here; migrating tasks get their terminal state from phase 2.
            migrating = {m.name for m in migrants}
            for name, done_at in report.per_task_completion.items():
                if name not in migrating and done_at == done_at:
                    jlog.finish(name, done_at, "completed", hops=0)
        results: list = []
        if migrants:
            spec = ScenarioSpec(
                graph=self.graph, migrants=migrants, config=self.config
            )
            self.runtime = ScenarioRuntime(spec, obs=obs)
            self._install_retarget(self.runtime)
            results = self.runtime.execute()
        return SchedulerDriveResult(
            report=report, decisions=decisions, migrants=migrants, results=results
        )

    def _install_retarget(self, runtime) -> None:
        """Arm the runtime's re-targeting hook under a node-fault plan.

        When a migration aborts because its destination crashed, the
        runtime asks this hook for a replacement before falling back to a
        wait-for-restart retry.  The policy mirrors the balancer's greedy
        rule: least-loaded live node not already on the route (and never
        the file server)."""
        from .topology import FILE_SERVER

        plan = runtime.node_plan
        if plan is None:
            return
        # The hook is stored on the runtime, so it captures what it reads,
        # never the runtime or this driver (which holds the runtime).
        nodes = self.graph.nodes
        cluster = runtime.cluster

        def retarget(route, hop, now):
            taken = set(route)
            candidates = [
                n
                for n in nodes
                if n not in taken and n != FILE_SERVER and not plan.down(n, now)
            ]
            if not candidates:
                return None
            return min(candidates, key=lambda n: (cluster.node(n).load, n))

        runtime.retarget = retarget
