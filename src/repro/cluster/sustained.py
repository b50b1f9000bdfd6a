"""Fleet-scale sustained load: arrival streams in, real migrations out.

This is the run mode of the paper's 300-node Gideon cluster experiments:
processes arrive continuously (one seeded stream per node, see
:class:`repro.cluster.loadgen.ArrivalStream`), every node takes migration
trigger decisions *locally* against its own gossip view through a
pluggable :class:`repro.cluster.policy.MigrationPolicy`, and the decision
log is executed as real (possibly multi-hop) remote-paging migrations in
one :class:`repro.cluster.session.ScenarioRuntime` — faults, chaos, and
the invariant checker included.

Everything is a pure function of the seed: two runs of the same
:class:`repro.cluster.topology.SustainedSpec` produce byte-identical
reports (``tests/cluster/test_sustained.py`` pins this, and two golden
scenarios pin it across releases).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..faults import NodeFaultPlan
from ..sim import Simulator, Timeout
from .cluster import Cluster
from .gossip import GossipLoadMap
from .loadgen import ArrivalStream, ProcessArrival
from .policy import make_policy
from .scheduler import (
    TIME_SLICE_S,
    ClusterScheduler,
    MigrationDecision,
    SchedulerReport,
    Task,
)
from .session import ScenarioRuntime
from .topology import (
    FILE_SERVER,
    MigrantSpec,
    NodeGraph,
    ScenarioSpec,
    SustainedSpec,
    make_strategy,
)


@dataclass(frozen=True, slots=True)
class UtilizationSample:
    """One tick of the cluster-utilization monitor."""

    time: float
    #: Worker nodes with at least one runnable process.
    busy_nodes: int
    mean_load: float
    #: Cumulative migration count at this instant.
    migrations: int


@dataclass(slots=True)
class SustainedReport:
    """Deterministic summary of one sustained-load horizon."""

    nodes: int
    policy: str
    scheme: str
    seed: int
    arrivals: int
    completed: int
    makespan: float
    migrations: int
    total_frozen_time: float
    #: ``{"t", "task", "src", "dst"}`` per decision, in decision order.
    decisions: list[dict] = field(default_factory=list)
    utilization: list[UtilizationSample] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "policy": self.policy,
            "scheme": self.scheme,
            "seed": self.seed,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "makespan": self.makespan,
            "migrations": self.migrations,
            "total_frozen_time": self.total_frozen_time,
            "decisions": list(self.decisions),
            "utilization": [
                [s.time, s.busy_nodes, s.mean_load, s.migrations]
                for s in self.utilization
            ],
        }


@dataclass(slots=True)
class SchedulerDriveResult:
    """The balancer's report and decision log, and the migrations they
    became (one :meth:`SustainedLoadDriver.execute` run)."""

    report: SchedulerReport
    decisions: list[MigrationDecision]
    migrants: tuple
    results: list


@dataclass(slots=True)
class SustainedResult:
    """Full outcome: the summary plus the executed migrations."""

    report: SustainedReport
    drive: SchedulerDriveResult

    def to_dict(self) -> dict:
        return {
            "report": self.report.to_dict(),
            "executed_migrants": [m.name for m in self.drive.migrants],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class SustainedLoadDriver:
    """Runs a :class:`SustainedSpec` end to end: the balancer's placement
    decisions become real migrations.

    The coarse :class:`ClusterScheduler` treats migration as a pure freeze
    cost; the paper's claim (section 7) is that AMPoM makes *aggressive*
    placement affordable.  Phase 1 (:meth:`plan`) runs the balancer over
    one task per arrival — on its node, at its drawn time, with its drawn
    lifetime as CPU demand (a workload trace's estimate is milliseconds
    and could never build up sustained load) — always decentralized: a
    real :class:`GossipLoadMap` on the plan simulator feeds each node's
    :class:`MigrationPolicy`.  Phase 2 (:meth:`execute`) chains each
    task's decisions into a :class:`MigrantSpec` path over its
    :class:`repro.workloads.synthetic.SequentialWorkload`, sized by the
    drawn footprint, and executes them all in one :class:`ScenarioRuntime`
    with full remote-paging simulation.
    """

    def __init__(
        self,
        graph: NodeGraph,
        sustained: SustainedSpec,
        config: SimulationConfig | None = None,
    ) -> None:
        from ..workloads.synthetic import SequentialWorkload

        cfg = config if config is not None else SimulationConfig()
        if sustained.prefetch_policy is not None:
            # The spec-level name wins over (and lands in) the config, so
            # every migration the driver decides resolves the same policy
            # through ScenarioRuntime's context threading.
            cfg = cfg.with_(prefetch_policy=sustained.prefetch_policy)
        worker_nodes = tuple(n for n in graph.nodes if n != FILE_SERVER)
        if len(worker_nodes) < 2:
            raise ConfigurationError(
                "a sustained run needs at least two worker nodes"
            )
        stream = ArrivalStream(sustained.arrivals, seed=cfg.seed, nodes=worker_nodes)
        arrivals = stream.all_arrivals()
        if not arrivals:
            raise ConfigurationError(
                "the arrival stream drew no arrivals; raise rate_hz or horizon_s"
            )
        page_size = cfg.hardware.page_size
        self.graph = graph
        self.sustained = sustained
        self.config = cfg
        self.stream = stream
        self.arrivals: tuple[ProcessArrival, ...] = arrivals
        #: One workload per arrival, in arrival order (task ``task-<i>``).
        self.workloads = [
            SequentialWorkload(a.memory_bytes, page_size=page_size) for a in arrivals
        ]
        self.worker_nodes = worker_nodes
        self.samples: list[UtilizationSample] = []
        self.report: SustainedReport | None = None
        #: Optional :class:`repro.obs.Observability` bundle.  Set by
        #: :meth:`execute` (or directly, for plan-only callers such as the
        #: figure generators): phase 1 feeds armed fleet telemetry and
        #: journey traces, phase 2 hands the bundle to the runtime.  Pure
        #: observers — armed plans decide identically to bare ones.
        self.obs = None
        self.runtime = None
        #: Optional :class:`repro.obs.slo.SLOMonitor` evaluated online on
        #: every sampling tick (utilization imbalance, mean load...).
        self.slo_monitor = None

    # ------------------------------------------------------------------
    def plan(self) -> tuple[SchedulerReport, list[MigrationDecision]]:
        """Phase 1: run the balancer on the arrival stream's tasks; set
        :attr:`report` and return the balancer's report and decision log.
        Uses a throwaway simulator — the decisions, not the coarse timing,
        feed phase 2.  A plan daemon (the balancer, the utilization
        sampler, a gossip daemon) that fails raises its error here."""
        cfg = self.config
        sustained = self.sustained
        sim = Simulator()
        gossip = None
        try:
            cluster = Cluster(
                sim, cfg, self.graph.nodes, link_specs=self.graph.spec_overrides()
            )
            node_plan = None
            if cfg.node_faults.active:
                # Same spec + seed as the runtime's plan, so phase 1 balances
                # around the very crash schedule phase 2 will execute under.
                node_plan = NodeFaultPlan(
                    cfg.node_faults,
                    seed=cfg.seed,
                    nodes=self.graph.nodes,
                    protected={FILE_SERVER} if FILE_SERVER in self.graph.nodes else (),
                )
            tasks = [
                Task(
                    name=f"task-{i}",
                    cpu_seconds=arrival.cpu_seconds,
                    memory_bytes=workload.memory_bytes,
                    node=arrival.node,
                    arrival_s=arrival.time,
                )
                for i, (arrival, workload) in enumerate(zip(self.arrivals, self.workloads))
            ]
            # Bound to the plan simulator: load updates are real messages
            # on the plan's links, and every view lags accordingly.
            gossip = GossipLoadMap(
                sim,
                cluster,
                load_of=lambda name: scheduler.load(name),
                interval=sustained.gossip_interval_s,
                seed=cfg.seed,
                node_plan=node_plan,
            )
            if sustained.policy == "threshold":
                # Honor the spec-level gap knob rather than the class default.
                policy = make_policy(
                    "threshold", load_gap_threshold=sustained.load_gap_threshold
                )
            else:
                policy = make_policy(sustained.policy)
            scheduler = ClusterScheduler(
                sim,
                cluster,
                tasks,
                cfg,
                balance_interval=sustained.balance_interval_s,
                gossip=gossip,
                node_plan=node_plan,
                policy=policy,
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
                        src=decision.src, dst=decision.dst, view=dict(view),
                    )

                scheduler.on_decision = on_decision
            sampler = self._spawn_sampler(sim, scheduler)
            report = scheduler.run()
            error = sampler.take_error() or gossip.take_error()
            if error is not None:
                raise error
        finally:
            # Phase 1 is over, finished or failed.  Stopping the gossip
            # daemons also drops their load sampler, which closes over the
            # scheduler; closing the simulator drops the remaining wake-ups.
            if gossip is not None:
                gossip.stop()
            sim.close()
        if jlog is not None:
            for name, done_at in report.per_task_completion.items():
                if done_at == done_at:  # non-NaN: the plan completed it
                    jlog.record(name, "plan_complete", done_at)
        decisions = list(scheduler.decisions)
        completed = sum(
            1 for v in report.per_task_completion.values() if v == v  # non-NaN
        )
        self.report = SustainedReport(
            nodes=len(self.worker_nodes),
            policy=sustained.policy,
            scheme=sustained.scheme,
            seed=cfg.seed,
            arrivals=len(self.arrivals),
            completed=completed,
            makespan=report.makespan,
            migrations=report.migrations,
            total_frozen_time=report.total_frozen_time,
            decisions=[
                {"t": d.time, "task": d.task, "src": d.src, "dst": d.dst}
                for d in decisions
            ],
            utilization=list(self.samples),
        )
        return report, decisions

    def _spawn_sampler(self, sim: Simulator, scheduler: ClusterScheduler):
        """Spawn and return the ``utilization-sampler`` process: one tick
        per ``sample_interval_s`` records the utilization sample, evaluates
        the SLO monitor and, with ``obs.fleet`` armed, pushes the per-node
        series (docs/OBSERVABILITY.md, "Fleet telemetry").  The process
        keeps the identical ``Timeout`` schedule armed or not, which is
        what keeps armed runs byte-identical to unarmed ones."""
        self.samples = []
        obs = self.obs
        fleet = obs.fleet if obs is not None else None
        if fleet is not None:
            # Align the phase-2 gauges to this run's cadence.
            fleet.interval_s = self.sustained.sample_interval_s
        monitor = self.slo_monitor
        worker = self.worker_nodes
        pending = scheduler._pending_freeze
        decisions = scheduler.decisions
        task_by_name = {t.name: t for t in scheduler.tasks}
        out_counts = {n: 0 for n in worker}
        consumed = [0]  # decisions folded into out_counts so far
        # Hoisted gossip internals: the map object is fixed for the whole
        # run, so resolve its view/suspect tables once, not per tick.
        views = scheduler.gossip.views
        suspect_sets = scheduler.gossip._suspects

        def tick(t: float) -> None:
            loads = scheduler._loads()
            w = [loads[n] for n in worker]
            busy = sum(1 for v in w if v > 0)
            mean = sum(w) / len(w)
            self.samples.append(
                UtilizationSample(
                    time=t,
                    busy_nodes=busy,
                    mean_load=mean,
                    migrations=scheduler.migrations,
                )
            )
            if monitor is not None:
                monitor.evaluate(
                    t,
                    {
                        "utilization_imbalance": float(max(w) - min(w)),
                        "mean_load": mean,
                        "busy_nodes": float(busy),
                        "busy_fraction": busy / len(w),
                    },
                )
            if fleet is None:
                return
            for decision in decisions[consumed[0]:]:
                if decision.src in out_counts:
                    out_counts[decision.src] += 1
            consumed[0] = len(decisions)
            in_flight = {n: 0 for n in worker}
            for name in pending:
                task = task_by_name.get(name)
                if task is not None and task.node in in_flight:
                    in_flight[task.node] += 1
            for n in worker:
                fleet.push(n, "load", t, float(loads[n]))
                fleet.push(n, "in_flight_migrations", t, float(in_flight[n]))
                fleet.push(n, "migrations_out", t, float(out_counts[n]))
            for n in worker:
                entries = views.get(n)
                stale = (
                    t - min(e.sampled_at for e in entries.values())
                    if entries
                    else 0.0
                )
                fleet.push(n, "gossip_staleness_s", t, stale)
            for n in worker:
                fleet.push(n, "suspected_peers", t, float(len(suspect_sets[n])))

        def sampler():
            while any(t.finished_at is None for t in scheduler.tasks):
                tick(sim.now)
                yield Timeout(self.sustained.sample_interval_s)

        return sim.spawn(sampler(), name="utilization-sampler")

    def migrant_specs(self, decisions) -> tuple[MigrantSpec, ...]:
        """Convert a decision log into per-task migration paths.

        Consecutive moves of one task chain into a multi-hop path; the
        chain is cut at the first revisit (the runtime's deputy model
        does not re-absorb a node already holding a transit deputy).
        Each hop waits at least one balancer time slice."""
        by_task: dict[str, list[MigrationDecision]] = {}
        for decision in decisions:
            by_task.setdefault(decision.task, []).append(decision)
        strategy = partial(make_strategy, self.sustained.scheme)
        specs = []
        for i, (arrival, workload) in enumerate(zip(self.arrivals, self.workloads)):
            moves = by_task.get(f"task-{i}", [])
            if not moves:
                continue
            path = [arrival.node]
            times: list[float] = []
            for decision in moves:
                if decision.dst in path:
                    break
                path.append(decision.dst)
                times.append(decision.time)
            if len(path) < 2:
                continue
            hop_delays = tuple(
                max(times[k + 1] - times[k], TIME_SLICE_S) for k in range(len(path) - 2)
            )
            specs.append(
                MigrantSpec(
                    workload=workload,
                    strategy=strategy,
                    path=tuple(path),
                    start_s=times[0],
                    hop_delays=hop_delays,
                    name=f"task-{i}",
                )
            )
        return tuple(specs)

    def execute(self, obs=None, jobs=None) -> SustainedResult:
        """Phases 1 + 2: plan, then simulate every decided migration in
        one :class:`ScenarioRuntime`; returns the summary plus the
        executed migrations.

        A run is always sequential, in one process.  ``jobs`` is kept for
        callers that pin that explicitly (``jobs=1``); any value other
        than ``None`` or ``1`` raises :class:`ConfigurationError`.
        """
        if jobs not in (None, 1):
            raise ConfigurationError(
                f"a sustained run is sequential; jobs must be None or 1, got {jobs!r}"
            )
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
            spec = ScenarioSpec(graph=self.graph, migrants=migrants, config=self.config)
            self.runtime = ScenarioRuntime(spec, obs=obs)
            self._install_retarget(self.runtime)
            results = self.runtime.execute()
        drive = SchedulerDriveResult(
            report=report, decisions=decisions, migrants=migrants, results=results
        )
        return SustainedResult(report=self.report, drive=drive)

    def _install_retarget(self, runtime: ScenarioRuntime) -> None:
        """Arm the runtime's re-targeting hook under a node-fault plan.

        When a migration aborts because its destination crashed, the
        runtime asks this hook for a replacement before falling back to a
        wait-for-restart retry.  The policy mirrors the balancer's greedy
        rule: least-loaded live node not already on the route (and never
        the file server)."""
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


def run_sustained(spec, obs=None) -> SustainedResult:
    """Execute a sustained :class:`ScenarioSpec` (``spec.sustained`` set)."""
    if spec.sustained is None:
        raise ConfigurationError("scenario has no sustained section")
    driver = SustainedLoadDriver(spec.graph, spec.sustained, config=spec.config)
    return driver.execute(obs=obs)


__all__ = [
    "SchedulerDriveResult",
    "SustainedLoadDriver",
    "SustainedReport",
    "SustainedResult",
    "UtilizationSample",
    "run_sustained",
]
