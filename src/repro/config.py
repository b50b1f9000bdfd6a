"""Configuration dataclasses for hardware, network, and the AMPoM algorithm.

The defaults reproduce the paper's testbed: the HKU Gideon 300 cluster
(Pentium 4 2 GHz nodes, 512 MB RAM, Fast Ethernet) running openMosix
2.4.26-1 (paper section 5.1), with the algorithm parameters of section 4
(lookback window length 20, dmax = 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigurationError
from .units import MPT_ENTRY_BYTES, PAGE_SIZE, mbit_per_s, ms, us


@dataclass(frozen=True)
class HardwareSpec:
    """Per-node hardware model (Gideon 300 defaults).

    ``cpu_hz`` is only used for reporting; per-workload compute costs are
    expressed directly in seconds-per-page-reference (see
    :mod:`repro.experiments.calibration`), because that is the quantity the
    simulation consumes.
    """

    cpu_hz: float = 2.0e9
    ram_bytes: int = 512 * 1024 * 1024
    page_size: int = PAGE_SIZE
    mpt_entry_bytes: int = MPT_ENTRY_BYTES
    #: CPU time to copy one arrived (buffered) page into the address space.
    page_copy_time: float = us(6.0)
    #: CPU time charged per AMPoM dependent-zone analysis (figure 11 model).
    analysis_time_per_fault: float = us(2.0)
    #: Kernel time to process one MPT entry while installing the migrated
    #: page table (calibrates AMPoM's linear freeze-time growth, fig. 5).
    mpt_install_time_per_entry: float = us(3.0)
    #: Fixed per-migration cost: capturing/restoring registers, the process
    #: control block, socket setup etc.
    migration_setup_time: float = ms(45.0)
    #: Origin-node ("deputy") service time per remote paging request.
    deputy_request_time: float = us(25.0)
    #: Origin-node service time per page looked up and queued for sending.
    deputy_page_time: float = us(8.0)
    #: Extra wire-time-equivalent cost per remotely paged page (interrupts,
    #: syscalls, and protocol framing on both ends).  Per-page remote
    #: paging is less efficient than openMosix's bulk migration stream,
    #: which is why AMPoM's total execution time ends up slightly *above*
    #: openMosix's in figure 6 even though its transfers overlap compute.
    remote_paging_overhead_bytes: int = 640

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigurationError(f"page_size must be a positive power of two: {self.page_size}")
        if self.ram_bytes <= 0:
            raise ConfigurationError("ram_bytes must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    """Point-to-point link model parameters.

    Defaults model Fast Ethernet as deployed in the Gideon 300 cluster:
    100 Mb/s with ~0.15 ms one-way latency.  The broadband scenario of
    figure 9 is :func:`NetworkSpec.broadband` (6 Mb/s, 2 ms), produced in
    the paper with ``tc``/``iptables`` traffic shaping.
    """

    bandwidth_bps: float = mbit_per_s(100.0)
    latency_s: float = ms(0.15)
    #: Fixed per-message wire overhead (headers, syscall, interrupt).
    per_message_overhead_bytes: int = 66
    #: Per-page protocol overhead on top of the raw page payload.
    per_page_overhead_bytes: int = 48
    #: How far back (seconds) the per-transfer log must stay exact for
    #: byte-counter queries; older entries are compacted away so the log
    #: stays bounded on long runs (the monitor samples every ~1 s).
    counter_horizon_s: float = 16.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every test.
        if not 0 < self.bandwidth_bps < math.inf:
            raise ConfigurationError(
                f"bandwidth_bps must be positive and finite, got {self.bandwidth_bps}"
            )
        if not 0 <= self.latency_s < math.inf:
            raise ConfigurationError(
                f"latency_s must be non-negative and finite, got {self.latency_s}"
            )
        for field_name in (
            "counter_horizon_s",
            "per_message_overhead_bytes",
            "per_page_overhead_bytes",
        ):
            value = getattr(self, field_name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{field_name} must be non-negative and finite, got {value}"
                )

    @classmethod
    def fast_ethernet(cls) -> "NetworkSpec":
        """The cluster interconnect used in sections 5.2-5.4 and 5.6-5.7."""
        return cls()

    @classmethod
    def broadband(cls) -> "NetworkSpec":
        """The simulated broadband network of section 5.5 (6 Mb/s, 2 ms)."""
        return cls(bandwidth_bps=mbit_per_s(6.0), latency_s=ms(2.0))


@dataclass(frozen=True)
class AMPoMConfig:
    """Parameters of the AMPoM prefetching algorithm (paper sections 3-4)."""

    #: Lookback window length ``l`` (section 4: 20).
    lookback_length: int = 20
    #: Maximum stride analysed, ``dmax`` (section 4: 4).
    dmax: int = 4
    #: Hard cap on the dependent-zone size, pages.  The paper does not state
    #: a cap but figure 8 never exceeds ~160 pages/fault; the cap prevents a
    #: transient bandwidth-estimate spike from requesting an unbounded zone.
    max_zone_pages: int = 256
    #: Floor on the dependent-zone size, pages.  Section 5.3 observes that
    #: AMPoM retains "a 'baseline' of prefetching aggressiveness even when
    #: the access pattern is not clear", resembling a fixed-size read-ahead;
    #: the kernel it is built into already reads 8 pages around every
    #: swapped-in fault (Linux 2.4 ``page_cluster = 3``), and openMosix's
    #: remote paging takes that path.  The floor reproduces figure 7/8's
    #: RandomAccess behaviour (85% of fault requests still prevented).
    min_zone_pages: int = 8
    #: Floor on the estimated available bandwidth, as a fraction of link
    #: capacity, so the td estimate stays finite on a saturated link.
    min_bandwidth_fraction: float = 0.05
    #: Fallback paging interval (seconds) used for 1/r before the window has
    #: two distinct timestamps.
    initial_paging_interval: float = ms(1.0)

    def __post_init__(self) -> None:
        if self.lookback_length < 2:
            raise ConfigurationError("lookback_length must be >= 2")
        if not (1 <= self.dmax < self.lookback_length):
            raise ConfigurationError("dmax must satisfy 1 <= dmax < lookback_length")
        if self.max_zone_pages < 1:
            raise ConfigurationError("max_zone_pages must be >= 1")
        if not (0 <= self.min_zone_pages <= self.max_zone_pages):
            raise ConfigurationError("need 0 <= min_zone_pages <= max_zone_pages")
        if not (0.0 < self.min_bandwidth_fraction <= 1.0):
            raise ConfigurationError("min_bandwidth_fraction must be in (0, 1]")


@dataclass(frozen=True)
class InfoDConfig:
    """Configuration of the resource discovery and monitoring daemon."""

    #: Interval between load-update/RTT probes (openMosix gossips ~1/s).
    probe_interval: float = 1.0
    #: Size of the load-update datagram whose acknowledgement measures RTT.
    probe_size_bytes: int = 128
    #: Exponential smoothing factor for RTT / bandwidth estimates.
    smoothing: float = 0.5
    #: Cap on the queuing delay a probe can observe per direction, modelling
    #: the finite switch/NIC buffer a real ping traverses (seconds).
    queue_delay_cap: float = 0.064
    #: Scheduling latency of the remote user-space daemon that acknowledges
    #: the load-update probe.  On the paper's platform (Linux 2.4, HZ=100)
    #: a sleeping daemon wakes on a ~10 ms scheduler tick, so the measured
    #: RTT — and hence AMPoM's prefetch horizon ``t`` — is dominated by it.
    #: This is what makes the paper's dependent zones tens of pages deep
    #: (figure 8) rather than a bare wire round trip.
    daemon_delay: float = 0.010

    def __post_init__(self) -> None:
        # Written so that NaN fails every test.
        if not 0 < self.probe_interval < math.inf:
            raise ConfigurationError(
                f"probe_interval must be positive and finite, got {self.probe_interval}"
            )
        if not 0 < self.smoothing <= 1:
            raise ConfigurationError(
                f"smoothing must be in (0, 1], got {self.smoothing}"
            )
        for field_name in ("probe_size_bytes", "queue_delay_cap", "daemon_delay"):
            value = getattr(self, field_name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{field_name} must be non-negative and finite, got {value}"
                )


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault-injection model for the paging path.

    All randomness is drawn from per-channel streams derived from the
    experiment seed (:func:`repro.sim.rng.child_rng`), so the same seed
    always produces the same drop/duplicate/delay schedule.  The default
    spec injects nothing and leaves every simulation bit-identical to the
    fault-free code path.

    Windows are absolute simulated times ``(start, end)``; fault injection
    only begins once the migrant resumes (the freeze-time bulk transfer
    runs over TCP in the modelled systems and is out of scope).
    """

    #: Probability that a message is lost downstream (it still occupies
    #: the sender's wire time, like a frame dropped by a switch).
    loss_rate: float = 0.0
    #: Probability that a delivered message is duplicated on the wire.
    duplicate_rate: float = 0.0
    #: Probability that a delivered message is delayed by ``delay_s``.
    delay_rate: float = 0.0
    #: Extra one-way delay applied to delayed messages (seconds).
    delay_s: float = 0.0
    #: Scheduled link outages; messages submitted inside a window vanish
    #: without occupying the wire (the link is physically down).
    link_down_windows: tuple[tuple[float, float], ...] = ()
    #: Scheduled deputy crash windows; paging/syscall requests arriving
    #: inside a window are silently ignored (state survives the restart).
    deputy_crash_windows: tuple[tuple[float, float], ...] = ()
    #: How many recently released pages the deputy keeps re-sendable so a
    #: retransmitted request does not hit "origin no longer stores it".
    replay_cache_pages: int = 4096

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "delay_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1]: {rate}")
        # Written so that NaN fails: a NaN delay would make ``active``
        # false and silently inject nothing.
        if not 0 <= self.delay_s < math.inf:
            raise ConfigurationError(
                f"delay_s must be non-negative and finite: {self.delay_s}"
            )
        if self.replay_cache_pages < 0:
            raise ConfigurationError("replay_cache_pages must be non-negative")
        for label in ("link_down_windows", "deputy_crash_windows"):
            windows = tuple(tuple(w) for w in getattr(self, label))
            object.__setattr__(self, label, windows)
            for window in windows:
                if len(window) != 2 or not window[0] < window[1]:
                    raise ConfigurationError(
                        f"{label} entries must be (start, end) with start < end: {window}"
                    )
            for (_, a_end), (b_start, _) in zip(windows, windows[1:]):
                if b_start < a_end:
                    raise ConfigurationError(f"{label} must be sorted and non-overlapping")

    @property
    def active(self) -> bool:
        """True if this spec can ever perturb a message."""
        return bool(
            self.loss_rate > 0.0
            or self.duplicate_rate > 0.0
            or (self.delay_rate > 0.0 and self.delay_s > 0.0)
            or self.link_down_windows
            or self.deputy_crash_windows
        )


@dataclass(frozen=True)
class NodeFaultSpec:
    """Whole-node crash/restart schedule (the node-failure lifecycle).

    Unlike :class:`FaultSpec.deputy_crash_windows` — a survivable deputy
    *pause* whose state outlives the restart — a node crash is fatal to
    everything the node hosted: its deputy processes are gone for good
    (openMosix keeps no deputy state on disk), its infod stops answering
    probes, it stops gossiping, and messages addressed to it vanish.  The
    restart end of a window only brings the *node* back (fresh, empty),
    which is why a home-node crash kills the migrant and a transit-deputy
    crash needs chain repair even after the node returns.

    Crashes come from two sources, merged per node:

    * ``crash_windows`` — explicit ``(node, start, end)`` triples in
      absolute simulated seconds;
    * a seeded schedule — when ``crash_rate_hz > 0``, each eligible node
      draws crash arrivals (exponential inter-arrival, mean
      ``1/crash_rate_hz``) with exponential downtimes of mean
      ``mean_downtime_s``, over ``[0, horizon_s)``.  Same seed, same
      schedule (see :class:`repro.faults.plan.NodeFaultPlan`).

    Topology-level validation (unknown nodes, the file server, window
    overlap) happens when a :class:`repro.faults.plan.NodeFaultPlan` is
    built against a concrete node set.
    """

    #: Explicit crash windows: ``(node, start_s, end_s)`` triples.
    crash_windows: tuple[tuple[str, float, float], ...] = ()
    #: Seeded crash arrival rate per eligible node (0 = explicit only).
    crash_rate_hz: float = 0.0
    #: Mean downtime of a seeded crash window (exponential).
    mean_downtime_s: float = 0.0
    #: Seeded crashes are drawn over ``[0, horizon_s)``.
    horizon_s: float = 0.0
    #: Nodes eligible for seeded crashes (empty = every non-file-server
    #: node of the topology the plan is built against).
    nodes: tuple[str, ...] = ()
    #: Gossip-view age beyond which a peer marks a node suspected.
    suspect_staleness_s: float = 3.0
    #: Consecutive unanswered infod probes before the home is suspected.
    probe_suspect_after: int = 2

    def __post_init__(self) -> None:
        windows = tuple((str(n), float(a), float(b)) for n, a, b in self.crash_windows)
        object.__setattr__(self, "crash_windows", windows)
        for node, start, end in windows:
            if not node:
                raise ConfigurationError("crash_windows node name must be non-empty")
            if not start < end:
                raise ConfigurationError(
                    f"crash_windows entries must satisfy start < end: ({node!r}, {start}, {end})"
                )
            if start < 0:
                raise ConfigurationError(
                    f"crash_windows start must be non-negative: ({node!r}, {start}, {end})"
                )
        object.__setattr__(self, "nodes", tuple(str(n) for n in self.nodes))
        if self.crash_rate_hz < 0:
            raise ConfigurationError(f"crash_rate_hz must be non-negative: {self.crash_rate_hz}")
        if self.mean_downtime_s < 0:
            raise ConfigurationError(
                f"mean_downtime_s must be non-negative: {self.mean_downtime_s}"
            )
        if self.horizon_s < 0:
            raise ConfigurationError(f"horizon_s must be non-negative: {self.horizon_s}")
        if self.crash_rate_hz > 0.0 and (self.mean_downtime_s <= 0.0 or self.horizon_s <= 0.0):
            raise ConfigurationError(
                "seeded node crashes need crash_rate_hz, mean_downtime_s and "
                "horizon_s all positive"
            )
        if self.suspect_staleness_s <= 0:
            raise ConfigurationError("suspect_staleness_s must be positive")
        if self.probe_suspect_after < 1:
            raise ConfigurationError("probe_suspect_after must be >= 1")

    @property
    def active(self) -> bool:
        """True if this spec can ever crash a node."""
        return bool(self.crash_windows) or self.crash_rate_hz > 0.0


@dataclass(frozen=True)
class RetrySpec:
    """Timeout/retransmission policy of the reliable paging protocol.

    A demand request whose reply is lost is retransmitted after
    ``timeout_s * backoff**attempt`` seconds (plus deterministic jitter up
    to ``jitter_frac`` of that), at most ``max_attempts`` times before the
    executor gives up with a :class:`repro.errors.MigrationError`.
    """

    #: Base retransmission timeout (seconds) for the first attempt.
    timeout_s: float = 0.05
    #: Exponential backoff multiplier per retransmission.
    backoff: float = 2.0
    #: Maximum number of retransmissions before the run fails.
    max_attempts: int = 6
    #: Jitter fraction added on top of each timeout (decorrelates retries).
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        # Written so that NaN fails: a NaN timeout would retransmit with
        # no wait at all.
        if not 0 < self.timeout_s < math.inf:
            raise ConfigurationError(
                f"timeout_s must be positive and finite: {self.timeout_s}"
            )
        if not 1.0 <= self.backoff < math.inf:
            raise ConfigurationError(f"backoff must be >= 1 and finite: {self.backoff}")
        if self.max_attempts < 0:
            raise ConfigurationError("max_attempts must be non-negative")
        if not (0.0 <= self.jitter_frac < 1.0):
            raise ConfigurationError(f"jitter_frac must be in [0, 1): {self.jitter_frac}")

    def timeout_for(self, attempt: int, u: float = 0.0) -> float:
        """The timeout armed for retransmission ``attempt`` (0-based).

        ``u`` is a uniform [0, 1) draw from the experiment's retry stream;
        passing the same ``u`` always yields the same timeout.
        """
        return self.timeout_s * self.backoff**attempt * (1.0 + self.jitter_frac * u)


@dataclass(frozen=True)
class CheckSpec:
    """Configuration of the :mod:`repro.check` runtime correctness tooling.

    Checks are pure observers: they never alter simulation state or
    timing, so a run with checks enabled produces bit-identical results to
    the same run with checks off — it merely raises
    :class:`repro.errors.InvariantViolation` if the model misbehaves.
    The default (disabled) spec adds zero work to the hot path.
    """

    #: Master switch for the runtime invariant checker.
    enabled: bool = False
    #: Also cross-check every dependent-zone analysis against the
    #: brute-force AMPoM oracle (eq. 1-3 + pivot selection).
    oracle: bool = True
    #: Run the full set-theoretic residency audit every this many checked
    #: events (cheap O(1) size/counter checks run on every event; the deep
    #: audit is O(pages)).  A final deep audit always runs at end of run.
    deep_audit_interval: int = 64
    #: How many recent events the checker retains for violation reports.
    trace_depth: int = 32

    def __post_init__(self) -> None:
        if self.deep_audit_interval < 1:
            raise ConfigurationError("deep_audit_interval must be >= 1")
        if self.trace_depth < 0:
            raise ConfigurationError("trace_depth must be non-negative")

    @classmethod
    def from_env(cls) -> "CheckSpec":
        """Default spec honouring the ``REPRO_CHECKS`` environment variable.

        ``REPRO_CHECKS=1`` turns the invariant checker and oracle on for
        every :class:`SimulationConfig` built with default arguments —
        how the CI ``checks-on`` job runs the whole test suite under the
        checker without touching any call site.
        """
        import os

        if os.environ.get("REPRO_CHECKS", "") not in ("", "0"):
            return cls(enabled=True)
        return cls()


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level bundle a :class:`repro.cluster.topology.ScenarioSpec` runs under."""

    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    ampom: AMPoMConfig = field(default_factory=AMPoMConfig)
    infod: InfoDConfig = field(default_factory=InfoDConfig)
    faults: FaultSpec = field(default_factory=FaultSpec)
    node_faults: NodeFaultSpec = field(default_factory=NodeFaultSpec)
    retry: RetrySpec = field(default_factory=RetrySpec)
    checks: CheckSpec = field(default_factory=CheckSpec.from_env)
    seed: int = 0

    def with_network(self, network: NetworkSpec) -> "SimulationConfig":
        """Return a copy with a different interconnect (e.g. broadband)."""
        return replace(self, network=network)

    def with_(self, **kwargs: Any) -> "SimulationConfig":
        """Return a copy with arbitrary fields replaced."""
        return replace(self, **kwargs)
