"""The resource discovery and monitoring daemon (modified oM_infoD).

Paper sections 2.4 and 4.  The daemon supplies the AMPoM algorithm with:

* the round-trip time ``2*t0`` — measured by timing the acknowledgement of
  a periodic load-update datagram.  The probe traverses the same (possibly
  congested) channels as page traffic, so queuing delay inflates the
  estimate — this is the mechanism behind "prefetch more aggressively when
  the network is busy".  A finite buffer cap bounds the queuing delay a
  single probe can observe.
* the available bandwidth — from deltas of the interface RX/TX byte
  counters (the paper samples ``/sbin/ifconfig``), re-sampled every probe
  interval and additionally every time the lookback window wraps.
* the CPU share a process can expect on the node (feeds ``c'`` when other
  processes compete for the CPU).

``conditions()`` returns the snapshot consumed by
:class:`repro.core.prefetcher.AMPoMPrefetcher`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import InfoDConfig
from ..core.policy import LinkConditions
from ..net.link import Direction
from ..net.monitor import BandwidthEstimator, RttEstimator
from ..sim import Simulator, Timeout
from .node import Node

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.log import NodeFaultStats
    from ..faults.plan import NodeFaultPlan


def local_load(node: Node) -> int:
    """The load value an oM_infoD exports in its gossip datagrams.

    openMosix disseminates each node's runnable-process count (its load
    average numerator); here that is the node's current CPU queue length.
    :class:`repro.cluster.gossip.GossipLoadMap` uses this as its default
    ``load_of`` sample, so decentralized trigger decisions read exactly
    what the local daemon can observe — never global state.
    """
    return node.load


class InfoDaemon:
    """Per-node monitoring daemon for a migrated process's destination.

    Under a :class:`repro.faults.NodeFaultPlan` the daemon doubles as the
    migrant-side failure detector for its home node: a probe sent while the
    home is dark goes unanswered (``probes_missed``), and once
    ``suspect_after`` consecutive probes miss, the home is marked
    ``suspected`` and the detection latency (now minus the crash instant)
    is recorded on the shared :class:`repro.faults.NodeFaultStats`.  A
    successful probe clears the suspicion.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        to_home: Direction,
        from_home: Direction,
        config: InfoDConfig,
        min_bandwidth_fraction: float = 0.05,
        node_plan: "NodeFaultPlan | None" = None,
        home: str | None = None,
        suspect_after: int = 2,
        stats: "NodeFaultStats | None" = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.to_home = to_home
        self.from_home = from_home
        self.config = config
        self.node_plan = node_plan
        self.home = home
        self.suspect_after = suspect_after
        self.stats = stats
        self.probes_missed = 0
        self.suspected = False
        self._consecutive_misses = 0
        self.rtt = RttEstimator(
            smoothing=config.smoothing,
            initial=self._instant_rtt(),
        )
        self.bandwidth = BandwidthEstimator(
            from_home,
            min_fraction=min_bandwidth_fraction,
            smoothing=config.smoothing,
        )
        self.probes_sent = 0
        self._proc = sim.spawn(self._run(), name=f"infod@{node.name}")

    # ------------------------------------------------------------------
    def _instant_rtt(self) -> float:
        """One probe's measured round trip at the current instant.

        Latency + serialization of the probe in both directions, plus the
        queuing delay currently in front of each channel (capped by the
        modelled switch buffer).
        """
        cap = self.config.queue_delay_cap
        size = self.config.probe_size_bytes
        rtt = self.config.daemon_delay
        for channel in (self.to_home, self.from_home):
            rtt += channel.latency_s
            rtt += (size + channel.per_message_overhead_bytes) / channel.bandwidth_bps
            rtt += min(channel.queuing_delay(self.sim.now), cap)
        return rtt

    def _run(self):
        while True:
            yield Timeout(self.config.probe_interval)
            self.probe()

    # ------------------------------------------------------------------
    def probe(self) -> None:
        """Measure RTT and re-sample the bandwidth counters now."""
        now = self.sim.now
        if (
            self.node_plan is not None
            and self.home is not None
            and self.node_plan.down(self.home, now)
        ):
            # The ack never comes back: count the miss, escalate to a
            # suspicion after enough consecutive misses, but keep the last
            # good RTT/bandwidth estimates (stale data beats no data).
            self.probes_missed += 1
            self._consecutive_misses += 1
            self.probes_sent += 1
            if not self.suspected and self._consecutive_misses >= self.suspect_after:
                self.suspected = True
                if self.stats is not None:
                    self.stats.suspicions += 1
                    crashed_at = self.node_plan.crash_start(self.home, now)
                    self.stats.record_detection(now - crashed_at, node=self.home, at=now)
            return
        if self.suspected:
            self.suspected = False
            if self.stats is not None:
                self.stats.unsuspicions += 1
        self._consecutive_misses = 0
        self.rtt.observe(self._instant_rtt())
        self.bandwidth.observe(now)
        self.probes_sent += 1

    def on_window_wrap(self) -> None:
        """Bandwidth re-sample triggered by a lookback-window wrap
        (paper section 4)."""
        self.bandwidth.observe(self.sim.now)

    def conditions(self) -> LinkConditions:
        """Snapshot for the prefetcher."""
        rtt = self.rtt.estimate
        assert rtt is not None  # initialized in __init__
        return LinkConditions(
            rtt_s=rtt,
            available_bw_bps=self.bandwidth.available_bps,
            cpu_share=self.node.cpu.share(),
        )

    def stop(self) -> None:
        """Terminate the periodic probe process."""
        self._proc.interrupt()
