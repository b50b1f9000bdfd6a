"""openMosix-style probabilistic load dissemination.

openMosix has no central coordinator (the paper's introduction argues this
is precisely why process migration suits decentralized systems): every
node's information daemon periodically sends its own load — plus a random
subset of what it knows about others — to a *randomly chosen* node.  Each
node therefore holds a bounded, slightly stale load vector, and migration
decisions are taken locally against that partial view.

:class:`GossipLoadMap` reproduces the protocol on the simulated network
(each load update is a real transfer on the sender's link), and
:class:`repro.cluster.scheduler.ClusterScheduler` can balance from these
decentralized views instead of its omniscient default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from ..sim import Simulator, Timeout
from ..sim.rng import child_rng
from .cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.log import FaultInjectionLog, NodeFaultStats
    from ..faults.plan import NodeFaultPlan


@dataclass(slots=True)
class LoadEntry:
    """One node's knowledge about another node's load."""

    load: int
    #: Simulated time the sample was taken at its origin.
    sampled_at: float


class GossipLoadMap:
    """Per-node partial load vectors, maintained by random gossip."""

    #: Wire size of one load update (openMosix load info is tiny).
    UPDATE_BYTES = 64

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        load_of: Callable[[str], int] | None = None,
        interval: float = 1.0,
        fanout_entries: int = 4,
        seed: int = 0,
        node_plan: "NodeFaultPlan | None" = None,
        suspect_staleness_s: float = 3.0,
        stats: "NodeFaultStats | None" = None,
        log: "FaultInjectionLog | None" = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive: {interval}")
        if fanout_entries < 1:
            raise ConfigurationError(f"fanout_entries must be >= 1: {fanout_entries}")
        self.sim = sim
        self.cluster = cluster
        if load_of is None:
            # Default sample: what the node's own infod can observe (its
            # CPU queue length), see repro.node.infod.local_load.
            from ..node.infod import local_load

            load_of = lambda name: local_load(cluster.node(name))  # noqa: E731
        self.load_of = load_of
        self.interval = interval
        self.fanout_entries = fanout_entries
        self.node_plan = node_plan
        self.suspect_staleness_s = suspect_staleness_s
        self.stats = stats
        self.log = log
        self._names = sorted(cluster.nodes)
        if len(self._names) < 2:
            raise ConfigurationError("gossip needs at least two nodes")
        self._index = {name: i for i, name in enumerate(self._names)}
        self._rng = child_rng(seed, "gossip")
        #: views[node][other] -> LoadEntry
        self.views: dict[str, dict[str, LoadEntry]] = {n: {} for n in self._names}
        #: suspects[node] -> peers this node currently believes dead
        self._suspects: dict[str, set[str]] = {n: set() for n in self._names}
        self.updates_sent = 0
        self._procs = [
            sim.spawn(self._daemon(name), name=f"gossip@{name}") for name in self._names
        ]

    # ------------------------------------------------------------------
    def _daemon(self, name: str):
        # Desynchronize daemons deterministically.
        yield Timeout(float(self._rng.uniform(0.0, self.interval)))
        while True:
            self._send_update(name)
            if self.node_plan is not None:
                self._evaluate_suspicions(name)
            yield Timeout(self.interval)

    def _send_update(self, sender: str) -> None:
        if self.node_plan is not None and self.node_plan.down(sender, self.sim.now):
            # A dark node gossips nothing: its load stops propagating, and
            # peers' views of it go stale — that staleness IS the failure
            # signal picked up by _evaluate_suspicions.
            return
        # Uniform over the other nodes: index k of the peer list (the
        # sorted names minus the sender), mapped without building it.
        k = int(self._rng.integers(0, len(self._names) - 1))
        target = self._names[k if k < self._index[sender] else k + 1]
        # Own fresh sample plus a random subset of known entries.
        payload: dict[str, LoadEntry] = {
            sender: LoadEntry(self.load_of(sender), self.sim.now)
        }
        known = list(self.views[sender].items())
        if known:
            take = min(self.fanout_entries - 1, len(known))
            idx = self._rng.permutation(len(known))[:take]
            for i in idx:
                node, entry = known[int(i)]
                if node != target:
                    payload[node] = entry
        channel = self.cluster.network.direction(sender, target)
        arrival = channel.transfer(self.UPDATE_BYTES, self.sim.now)
        self.sim.schedule_at(arrival, lambda: self._deliver(target, payload, arrival))
        self.updates_sent += 1

    def _deliver(self, receiver: str, payload: dict[str, LoadEntry], arrival: float) -> None:
        if self.node_plan is not None and self.node_plan.down(receiver, arrival):
            return  # the receiver is dark: the update is lost
        view = self.views[receiver]
        for node, entry in payload.items():
            if node == receiver:
                continue
            current = view.get(node)
            if current is None or entry.sampled_at > current.sampled_at:
                view[node] = entry

    # ------------------------------------------------------------------
    def _evaluate_suspicions(self, observer: str) -> None:
        """Staleness-threshold failure detection, run once per gossip tick.

        ``observer`` suspects every peer whose last sample is older than
        ``suspect_staleness_s``.  Transitions are recorded on the shared
        :class:`repro.faults.NodeFaultStats`: a suspicion of a node that
        really is down counts as a detection (with latency measured from
        the crash instant), otherwise as a false suspicion — gossip is
        probabilistic, so a slow-to-propagate sample can smear a live node.
        """
        now = self.sim.now
        plan = self.node_plan
        assert plan is not None
        if plan.down(observer, now):
            return  # the dead observe nothing
        suspects = self._suspects[observer]
        for other, entry in self.views[observer].items():
            stale = now - entry.sampled_at > self.suspect_staleness_s
            if stale and other not in suspects:
                suspects.add(other)
                if self.log is not None:
                    from ..faults.log import FaultEventKind

                    self.log.record(
                        now, FaultEventKind.SUSPECT, channel="gossip",
                        detail=f"{observer} suspects {other}",
                    )
                if self.stats is not None:
                    self.stats.suspicions += 1
                    if plan.down(other, now):
                        self.stats.record_detection(
                            now - plan.crash_start(other, now), node=other, at=now
                        )
                    else:
                        self.stats.false_suspicions += 1
            elif not stale and other in suspects:
                suspects.discard(other)
                if self.log is not None:
                    from ..faults.log import FaultEventKind

                    self.log.record(
                        now, FaultEventKind.UNSUSPECT, channel="gossip",
                        detail=f"{observer} clears {other}",
                    )
                if self.stats is not None:
                    self.stats.unsuspicions += 1

    def suspects(self, node: str) -> frozenset[str]:
        """Peers ``node`` currently believes are dead."""
        return frozenset(self._suspects[node])

    def view(self, node: str) -> dict[str, int]:
        """``{other_node: believed_load}`` as known at ``node`` right now."""
        return {other: entry.load for other, entry in self.views[node].items()}

    def staleness(self, node: str, other: str) -> float | None:
        """Age of ``node``'s knowledge about ``other`` (None if unknown)."""
        entry = self.views[node].get(other)
        return None if entry is None else self.sim.now - entry.sampled_at

    def take_error(self) -> BaseException | None:
        """The first failed daemon's error, taken off its process (see
        :meth:`repro.sim.SimProcess.take_error`); ``None`` while every
        daemon is healthy."""
        for proc in self._procs:
            if proc.error is not None:
                return proc.take_error()
        return None

    def stop(self) -> None:
        """Terminate the daemons and drop the load sampler.  The sampler
        usually reads the balancer that holds this map, and the two would
        otherwise keep each other alive after the run."""
        for proc in self._procs:
            proc.interrupt()
        self.load_of = None
