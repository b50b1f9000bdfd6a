"""Pluggable migration trigger policies for decentralized scheduling.

openMosix takes migration decisions *locally*: each node compares its own
load against the (partial, stale) gossip view it holds and decides alone
whether to offload and where.  This module extracts that decision into a
:class:`MigrationPolicy` interface — in the style of llumnix's
``CheckMigratePolicyFactory`` — so the same decentralized round in
:class:`repro.cluster.scheduler.ClusterScheduler` can run different
placement philosophies:

``threshold``
    sender-initiated greedy offload: migrate whenever the gap between the
    node's own load and the believed-idlest peer reaches a threshold.
    This is the classic openMosix rule, and with a fully converged view
    it reproduces the omniscient central balancer's decisions while the
    overload is confined to a single node (see
    ``tests/cluster/test_policy.py``; divergence appears under gossip
    staleness/suspicion, or when several nodes exceed the gap at once —
    the central round serializes one move per round, decentralized
    senders act concurrently).
``balanced``
    mean-seeking variant: offload only while the node sits above the
    cluster mean it can observe, pushing loads toward the average rather
    than chasing pairwise gaps.
``defrag``
    llumnix-style consolidation: a lightly loaded node *drains itself
    onto busier peers* (below a packing cap) so whole nodes become idle —
    the opposite gradient of the balancing policies, useful when free
    nodes are the resource being optimized.

All policies are deterministic: ties break on node name / task name, so a
policy's decision log is a pure function of the seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping, Sequence

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Task


def pick_task(candidates: Sequence["Task"]) -> "Task":
    """Default task choice: most remaining work (it benefits the most
    from moving), name as the deterministic tie-break."""
    return max(candidates, key=lambda t: (t.remaining, t.name))


def idlest(view: Mapping[str, int]) -> str:
    """Least-loaded node of a view; name breaks ties deterministically."""
    return min(view.items(), key=lambda kv: (kv[1], kv[0]))[0]


class MigrationPolicy(ABC):
    """One node's local trigger rule over its gossip view.

    ``select_target`` sees only what the deciding node can see: its own
    load and its (possibly partial, possibly stale) ``view`` of peers.
    Returning ``None`` means "keep the process here".  It must have no
    side effects: the scheduler does not consult it for a node with no
    live task, since such a node has nothing to offload anyway.
    """

    name = "?"

    @abstractmethod
    def select_target(
        self, node: str, own_load: int, view: Mapping[str, int]
    ) -> str | None:
        """Destination node for one offload from ``node``, or ``None``."""

    def select_task(self, candidates: Sequence["Task"]) -> "Task":
        """Which eligible task to move once a target is chosen."""
        return pick_task(candidates)


class ThresholdPolicy(MigrationPolicy):
    """Offload to the believed-idlest peer when the load gap reaches
    ``load_gap_threshold`` (openMosix's sender-initiated rule)."""

    name = "threshold"

    def __init__(self, load_gap_threshold: int = 2) -> None:
        if load_gap_threshold < 1:
            raise ConfigurationError(
                f"load_gap_threshold must be >= 1: {load_gap_threshold}"
            )
        self.load_gap_threshold = load_gap_threshold

    def select_target(
        self, node: str, own_load: int, view: Mapping[str, int]
    ) -> str | None:
        if not view:
            return None
        target = idlest(view)
        if own_load - view[target] < self.load_gap_threshold:
            return None
        return target


class BalancedPolicy(MigrationPolicy):
    """Offload while the node believes it sits ``tolerance`` above the
    mean load of everything it can see (itself included).

    A move must also strictly improve the pairwise balance (gap >= 2 with
    the target), otherwise one process would just ping-pong around the
    mean.
    """

    name = "balanced"

    def __init__(self, tolerance: float = 1.0) -> None:
        if tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive: {tolerance}")
        self.tolerance = tolerance

    def select_target(
        self, node: str, own_load: int, view: Mapping[str, int]
    ) -> str | None:
        if not view:
            return None
        mean = (own_load + sum(view.values())) / (1 + len(view))
        if own_load - mean < self.tolerance:
            return None
        target = idlest(view)
        if own_load - view[target] < 2:
            return None
        return target


class DefragPolicy(MigrationPolicy):
    """Consolidate: a node at or below ``drain_below`` pushes its work to
    the *most* loaded peer that still fits under ``max_target_load``,
    so lightly used nodes empty out entirely (llumnix-style
    defragmentation — free nodes, not flat loads, are the goal)."""

    name = "defrag"

    def __init__(self, drain_below: int = 2, max_target_load: int = 8) -> None:
        if drain_below < 1:
            raise ConfigurationError(f"drain_below must be >= 1: {drain_below}")
        if max_target_load <= drain_below:
            raise ConfigurationError(
                f"max_target_load ({max_target_load}) must exceed "
                f"drain_below ({drain_below})"
            )
        self.drain_below = drain_below
        self.max_target_load = max_target_load

    def select_target(
        self, node: str, own_load: int, view: Mapping[str, int]
    ) -> str | None:
        if own_load == 0 or own_load > self.drain_below:
            return None
        fits = {
            n: load
            for n, load in view.items()
            if load >= own_load and load + 1 <= self.max_target_load
        }
        if not fits:
            return None
        # Pack tightest: the busiest peer that still has room.
        return max(fits.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def select_task(self, candidates: Sequence["Task"]) -> "Task":
        # Drain cheapest-first: the task closest to completion moves with
        # the smallest residual freeze exposure.
        return min(candidates, key=lambda t: (t.remaining, t.name))


#: name -> zero-argument factory for ``repro cluster run --policy`` and
#: :class:`repro.cluster.topology.SustainedSpec`.
POLICIES: dict[str, type[MigrationPolicy]] = {
    ThresholdPolicy.name: ThresholdPolicy,
    BalancedPolicy.name: BalancedPolicy,
    DefragPolicy.name: DefragPolicy,
}


def make_policy(name: str, **kwargs) -> MigrationPolicy:
    """Instantiate a policy from its registry name (llumnix-factory style)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown migration policy {name!r}; pick one of {sorted(POLICIES)}"
        )
    return cls(**kwargs)


class ConvergedView:
    """Gossip stand-in whose view is always the exact current load map.

    Models a *fully converged* dissemination layer with zero staleness and
    no suspicion — the limit in which the decentralized threshold policy
    reproduces the omniscient central balancer move for move, as long as
    only one node at a time is over the gap (the equivalence regression
    in ``tests/cluster/test_policy.py`` pins both the equivalence and its
    boundary).  Real
    :class:`repro.cluster.gossip.GossipLoadMap` views lag behind, which is
    exactly the divergence the sustained-load scenarios measure.
    """

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler

    def view(self, node: str) -> dict[str, int]:
        loads = self.scheduler._loads()
        return {n: load for n, load in loads.items() if n != node}

    def suspects(self, node: str) -> frozenset[str]:
        return frozenset()

    def stop(self) -> None:  # pragma: no cover - symmetry with GossipLoadMap
        pass


__all__ = [
    "BalancedPolicy",
    "ConvergedView",
    "DefragPolicy",
    "MigrationPolicy",
    "POLICIES",
    "ThresholdPolicy",
    "idlest",
    "make_policy",
    "pick_task",
]
