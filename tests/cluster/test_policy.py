"""Unit and equivalence tests for the pluggable migration policies.

The load-bearing regression here is central/decentralized equivalence:
with a *fully converged* view (zero staleness, no suspicion) the
decentralized threshold policy reproduces the omniscient central
balancer's decision log exactly, on the classic 4-node pile-up scenario,
for as long as the overload stays confined to one node.  Divergence is
allowed — and demonstrated — only at two documented boundaries: real
gossip staleness, and simultaneous multi-node overload (the central
round serializes one move per round; decentralized senders act
concurrently).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.gossip import GossipLoadMap
from repro.cluster.policy import (
    POLICIES,
    BalancedPolicy,
    ConvergedView,
    DefragPolicy,
    MigrationPolicy,
    ThresholdPolicy,
    idlest,
    make_policy,
    pick_task,
)
from repro.cluster.scheduler import ClusterScheduler, Task
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.units import mib


def _task(name, cpu=1.0, node="n1"):
    return Task(name=name, cpu_seconds=cpu, memory_bytes=mib(1), node=node)


# ----------------------------------------------------------------------
# helpers + registry
# ----------------------------------------------------------------------
def test_pick_task_prefers_most_remaining_then_name():
    a, b, c = _task("a", cpu=2.0), _task("b", cpu=5.0), _task("c", cpu=5.0)
    assert pick_task([a, b, c]) is c  # max remaining, name tie-break


def test_idlest_breaks_ties_on_name():
    assert idlest({"n3": 1, "n2": 1, "n4": 5}) == "n2"


def test_registry_and_factory():
    assert set(POLICIES) == {"threshold", "balanced", "defrag"}
    policy = make_policy("threshold", load_gap_threshold=4)
    assert isinstance(policy, ThresholdPolicy)
    assert policy.load_gap_threshold == 4
    with pytest.raises(ConfigurationError):
        make_policy("no-such-policy")


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ThresholdPolicy(load_gap_threshold=0),
        lambda: BalancedPolicy(tolerance=0.0),
        lambda: DefragPolicy(drain_below=0),
        lambda: DefragPolicy(drain_below=4, max_target_load=4),
    ],
)
def test_policy_validation(factory):
    with pytest.raises(ConfigurationError):
        factory()


# ----------------------------------------------------------------------
# per-policy trigger rules
# ----------------------------------------------------------------------
class TestThreshold:
    def test_offloads_to_idlest_when_gap_reached(self):
        policy = ThresholdPolicy(load_gap_threshold=2)
        assert policy.select_target("n1", 5, {"n2": 3, "n3": 1}) == "n3"

    def test_holds_below_gap_or_without_view(self):
        policy = ThresholdPolicy(load_gap_threshold=2)
        assert policy.select_target("n1", 2, {"n2": 1}) is None
        assert policy.select_target("n1", 99, {}) is None


class TestBalanced:
    def test_offloads_only_above_mean(self):
        policy = BalancedPolicy(tolerance=1.0)
        # mean of (6, 1, 1) is 8/3; own - mean > 1 and pairwise gap >= 2.
        assert policy.select_target("n1", 6, {"n2": 1, "n3": 1}) == "n2"
        # At the mean: hold.
        assert policy.select_target("n1", 2, {"n2": 2, "n3": 2}) is None

    def test_requires_pairwise_improvement(self):
        policy = BalancedPolicy(tolerance=0.5)
        # Above the mean, but moving one process would just ping-pong.
        assert policy.select_target("n1", 3, {"n2": 2, "n3": 2}) is None


class TestDefrag:
    def test_drains_light_node_onto_busiest_fitting_peer(self):
        policy = DefragPolicy(drain_below=2, max_target_load=8)
        assert policy.select_target("n1", 1, {"n2": 5, "n3": 7}) == "n3"

    def test_respects_packing_cap(self):
        policy = DefragPolicy(drain_below=2, max_target_load=6)
        # n3 (load 7) would exceed the cap; n2 still fits.
        assert policy.select_target("n1", 1, {"n2": 5, "n3": 7}) == "n2"

    def test_idle_or_busy_nodes_hold(self):
        policy = DefragPolicy(drain_below=2)
        assert policy.select_target("n1", 0, {"n2": 5}) is None
        assert policy.select_target("n1", 3, {"n2": 5}) is None

    def test_drains_cheapest_task_first(self):
        policy = DefragPolicy()
        nearly_done, fresh = _task("zz", cpu=0.5), _task("aa", cpu=9.0)
        picked = policy.select_task([fresh, nearly_done])
        assert picked is nearly_done


# ----------------------------------------------------------------------
# central / decentralized equivalence (the satellite regression)
# ----------------------------------------------------------------------
def _run_pileup(view: str, n_tasks=4, seed=0):
    """The classic 4-node scenario: every task starts piled on n1.

    ``view`` selects the dissemination layer: "central" (omniscient
    balancer), "converged" (decentralized threshold over an exact view),
    or "gossip" (decentralized threshold over a real, lagging gossip map).
    """
    sim = Simulator()
    config = SimulationConfig()
    cluster = Cluster(sim, config, node_names=["n1", "n2", "n3", "n4"])
    tasks = [
        Task(name=f"t{i}", cpu_seconds=3.0, memory_bytes=mib(64), node="n1")
        for i in range(n_tasks)
    ]
    sched = ClusterScheduler(
        sim, cluster, tasks, config, freeze_model="ampom", balance_interval=0.5
    )
    if view == "converged":
        sched.gossip = ConvergedView(sched)
    elif view == "gossip":
        sched.gossip = GossipLoadMap(
            sim, cluster, load_of=sched.load, interval=0.5, seed=seed
        )
    report = sched.run()
    if view == "gossip":
        sched.gossip.stop()
    return sched, report


def test_converged_threshold_reproduces_central_decisions():
    """Zero staleness + no suspicion + one overloaded node: the
    decentralized threshold policy takes exactly the omniscient
    balancer's decisions, move for move."""
    central, _ = _run_pileup("central")
    converged, _ = _run_pileup("converged")
    assert central.decisions == converged.decisions
    assert central.decisions, "the pile-up scenario must trigger migrations"


def test_converged_equivalence_holds_while_overload_is_singular():
    # n_tasks <= n_nodes + 1 keeps every node but n1 at load <= 1
    # throughout, so n1 is the only possible sender at all times.
    for n_tasks in (3, 4, 5):
        central, _ = _run_pileup("central", n_tasks=n_tasks)
        converged, _ = _run_pileup("converged", n_tasks=n_tasks)
        assert central.decisions == converged.decisions, f"n_tasks={n_tasks}"


def test_concurrent_overload_is_a_documented_divergence():
    """Boundary 1 of the equivalence: with enough tasks the balanced
    plateau leaves several nodes at load >= 2, and as tasks drain the
    gap reopens on more than one node at once.  The central round still
    serializes one move per round; decentralized senders each fire —
    so the logs legitimately diverge (pinned here so a silent semantic
    change to either round shows up)."""
    central, _ = _run_pileup("central", n_tasks=8)
    converged, _ = _run_pileup("converged", n_tasks=8)
    assert central.decisions != converged.decisions
    # Up to the first concurrent-overload round the logs agree.
    n_common = next(
        (
            i
            for i, (a, b) in enumerate(zip(central.decisions, converged.decisions))
            if a != b
        ),
        min(len(central.decisions), len(converged.decisions)),
    )
    assert n_common >= 4, "the single-sender phase must still match"


def test_real_gossip_is_allowed_to_diverge():
    """Boundary 2: once views lag (real gossip dissemination), the
    decision log may — and, on this pinned scenario/seed, does —
    diverge from the omniscient one.  Both runs still complete every
    task."""
    central, central_report = _run_pileup("central", n_tasks=8)
    stale, stale_report = _run_pileup("gossip", n_tasks=8)
    assert stale.decisions != central.decisions
    for report in (central_report, stale_report):
        assert all(v == v for v in report.per_task_completion.values())  # no NaN


def test_scheduler_accepts_policy_instances():
    """The decentralized round runs whatever MigrationPolicy it is given
    (here: one that never migrates)."""

    class Never(MigrationPolicy):
        name = "never"

        def select_target(self, node, own_load, view):
            return None

    sim = Simulator()
    config = SimulationConfig()
    cluster = Cluster(sim, config, node_names=["n1", "n2"])
    tasks = [_task(f"t{i}", cpu=1.0) for i in range(4)]
    sched = ClusterScheduler(sim, cluster, tasks, config, policy=Never())
    sched.gossip = ConvergedView(sched)
    report = sched.run()
    assert report.migrations == 0
