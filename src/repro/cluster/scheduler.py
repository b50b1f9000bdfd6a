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
from .policy import MigrationPolicy, ThresholdPolicy, pick_task

#: Default CPU quantum a task runs per step.  The fleet driver floors a
#: planned hop's delay at it.
TIME_SLICE_S = 0.1


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
    :class:`repro.cluster.sustained.SustainedLoadDriver` turns into
    executable migration paths."""

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
        time_slice: float = TIME_SLICE_S,
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
        """Execute all tasks to completion; return the report.  Raises the
        balancer's error if its process failed (its tasks still ran to
        completion, unbalanced)."""
        procs = [
            self.sim.spawn(self._task_process(t), name=f"task-{t.name}")
            for t in self.tasks
        ]
        balancer = self.sim.spawn(self._balancer(), name="balancer")
        for proc in procs:
            self.sim.run_until_complete(proc)
        if balancer.error is not None:
            raise balancer.take_error()
        return SchedulerReport(
            makespan=self.sim.now,
            migrations=self.migrations,
            total_frozen_time=self.total_frozen_time,
            per_task_completion={
                t.name: (t.finished_at if t.finished_at is not None else float("nan"))
                for t in self.tasks
            },
        )
