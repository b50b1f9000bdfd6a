"""Declarative cluster scenarios: node graphs, link specs, migrant specs.

The paper's residual-dependency design (deputy on the origin node, MPT
travelling with the process, section 3) supports *chains* of migrations:
a process may move ``n0 -> n1 -> n2``, leaving a deputy on its home node
and a transit deputy on every intermediate node that still holds pages.
This module is the declarative half of that capability: a
:class:`ScenarioSpec` names the nodes and links of a cluster
(:class:`NodeGraph`), the migrants that run on it (:class:`MigrantSpec`,
including the multi-hop migration path), and the shared configuration.
:class:`repro.cluster.session.ScenarioRuntime` executes it;
:func:`two_node_spec` builds the paper's classic home->dest run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..config import FaultSpec, NetworkSpec, NodeFaultSpec, SimulationConfig
from ..errors import ConfigurationError, MigrationError
from ..units import mib, ms
from .loadgen import ArrivalSpec
from .policy import POLICIES

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.eventlog import FaultLog
    from ..migration.base import MigrationStrategy
    from ..workloads.base import Workload
    from .loadgen import LoadWindow

#: Canonical node names shared by every two-node scenario.
HOME = "home"
DEST = "dest"
FILE_SERVER = "fs"


def _wants_file_server(strategy: "MigrationStrategy") -> bool:
    """True when ``strategy`` is FFA, which pages from a file server."""
    from ..migration.ffa import FfaMigration

    return isinstance(strategy, FfaMigration)


@dataclass(frozen=True)
class LinkSpec:
    """Override for one link of a :class:`NodeGraph` full mesh.

    ``network`` replaces the shared :class:`NetworkSpec` for this link;
    ``shaped_bandwidth_bps``/``shaped_latency_s`` apply tc-style traffic
    shaping after construction (section 5.5); ``lossy`` forces fault
    injection on (``True``) or off (``False``) for this link when a fault
    plan is armed — ``None`` lets the runtime pick the links a migrant's
    paging traffic actually crosses.
    """

    a: str
    b: str
    network: NetworkSpec | None = None
    shaped_bandwidth_bps: float | None = None
    shaped_latency_s: float | None = None
    lossy: bool | None = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise MigrationError(f"a link needs two distinct endpoints: {self.a!r}")
        if (self.shaped_bandwidth_bps is None) != (self.shaped_latency_s is None):
            raise MigrationError(
                "shaped_bandwidth_bps and shaped_latency_s must be set together"
            )
        if self.shaped_bandwidth_bps is not None:
            if not 0 < self.shaped_bandwidth_bps < math.inf:
                raise MigrationError(
                    "shaped_bandwidth_bps must be positive and finite, "
                    f"got {self.shaped_bandwidth_bps}"
                )
            if not 0 <= self.shaped_latency_s < math.inf:
                raise MigrationError(
                    "shaped_latency_s must be non-negative and finite, "
                    f"got {self.shaped_latency_s}"
                )

    @property
    def pair(self) -> tuple[str, str]:
        """Order-independent endpoint key."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class NodeGraph:
    """Named nodes fully meshed by the config's default link, with
    per-link :class:`LinkSpec` overrides."""

    nodes: tuple[str, ...]
    links: tuple[LinkSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        if len(self.nodes) < 2:
            raise MigrationError(f"a NodeGraph needs at least two nodes: {self.nodes}")
        if len(set(self.nodes)) != len(self.nodes):
            raise MigrationError(f"duplicate node names: {self.nodes}")
        names = set(self.nodes)
        seen: set[tuple[str, str]] = set()
        for link in self.links:
            if link.a not in names or link.b not in names:
                raise MigrationError(
                    f"link {link.a!r}<->{link.b!r} references a node not in {self.nodes}"
                )
            if link.pair in seen:
                raise MigrationError(f"duplicate link spec for {link.pair}")
            seen.add(link.pair)

    def spec_overrides(self) -> dict[tuple[str, str], NetworkSpec]:
        """Per-pair :class:`NetworkSpec` replacements for Cluster.__init__."""
        return {
            link.pair: link.network for link in self.links if link.network is not None
        }

    def link_spec(self, a: str, b: str) -> LinkSpec | None:
        key = (a, b) if a <= b else (b, a)
        for link in self.links:
            if link.pair == key:
                return link
        return None


@dataclass(eq=False)
class MigrantSpec:
    """One migrating process: workload, strategy, and migration path.

    ``strategy`` is a :class:`MigrationStrategy` instance, the one place
    that names the migration's scheme and prefetch policy; migrants may
    share one.  ``path`` lists the nodes the process visits in order; the
    first entry is its home node (where the deputy stays), subsequent
    entries are migration destinations.  ``hop_delays[i]`` is how long
    the process runs on ``path[i + 1]`` before re-migrating to
    ``path[i + 2]`` — required for every hop except the last (the process
    runs to completion on the final node).
    """

    workload: "Workload"
    strategy: "MigrationStrategy"
    path: tuple[str, ...] = (HOME, DEST)
    start_s: float = 0.0
    hop_delays: tuple[float, ...] = ()
    with_infod: bool = True
    capacity_pages: int | None = None
    fault_log: "FaultLog | None" = None
    name: str | None = None

    def __post_init__(self) -> None:
        from ..migration.base import MigrationStrategy

        self.path = tuple(self.path)
        self.hop_delays = tuple(self.hop_delays)
        if not isinstance(self.strategy, MigrationStrategy):
            raise MigrationError(
                f"strategy must be a MigrationStrategy instance, got {self.strategy!r}"
            )
        if len(self.path) < 2:
            raise MigrationError(f"a migration path needs at least two nodes: {self.path}")
        if len(set(self.path)) != len(self.path):
            raise MigrationError(
                f"migration paths may not revisit a node: {self.path}"
            )
        if not 0 <= self.start_s < math.inf:
            raise MigrationError(f"start_s must be non-negative and finite: {self.start_s}")
        if len(self.hop_delays) != len(self.path) - 2:
            raise MigrationError(
                f"path {self.path} needs {len(self.path) - 2} hop_delays, "
                f"got {len(self.hop_delays)}"
            )
        for delay in self.hop_delays:
            if not delay > 0:  # NaN fails too
                raise MigrationError(f"hop_delays must be positive: {self.hop_delays}")
        if self.capacity_pages is not None and len(self.path) > 2:
            raise MigrationError(
                "capacity_pages (the LRU memory-pressure model) is not "
                "supported on multi-hop paths"
            )

    @property
    def home(self) -> str:
        return self.path[0]

    @property
    def hops(self) -> int:
        """Number of migrations along the path."""
        return len(self.path) - 1


@dataclass(frozen=True)
class SustainedSpec:
    """Sustained-load mode of a scenario: a seeded arrival stream plus the
    decentralized scheduling that serves it.

    When a :class:`ScenarioSpec` carries one of these, the scenario is not
    a fixed list of migrants: :class:`repro.cluster.sustained.SustainedLoadDriver`
    draws continuous process arrivals from ``arrivals`` (one independent
    RNG stream per node), lets each node's :class:`MigrationPolicy` take
    trigger decisions off its own gossip view, and executes the resulting
    decision log as real (possibly multi-hop) migrations.
    """

    arrivals: ArrivalSpec
    #: Trigger policy name (:data:`repro.cluster.policy.POLICIES`).
    policy: str = "threshold"
    #: Migration scheme executing the decided moves.
    scheme: str = "AMPoM"
    balance_interval_s: float = 0.5
    gossip_interval_s: float = 1.0
    load_gap_threshold: int = 2
    #: Cadence of the utilization/migration-count samples in the report.
    sample_interval_s: float = 0.5
    #: Prefetch-policy name of every executed migration (``None`` = the
    #: scheme's default; see :data:`repro.core.policy.POLICIES` — distinct
    #: from ``policy``, the migration *trigger* policy above).  With
    #: ``scheme`` it is the recipe for :attr:`strategy`.
    prefetch_policy: str | None = None
    #: The one strategy every executed migration shares, built from
    #: ``scheme`` and ``prefetch_policy`` at construction.
    strategy: "MigrationStrategy" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown migration policy {self.policy!r}; "
                f"pick one of {sorted(POLICIES)}"
            )
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; pick one of {sorted(_SCHEMES)}"
            )
        # Fail fast: the strategy checks the pairing, not phase 2.
        object.__setattr__(self, "strategy", make_strategy(self.scheme, self.prefetch_policy))
        for label, value in (
            ("balance_interval_s", self.balance_interval_s),
            ("gossip_interval_s", self.gossip_interval_s),
            ("sample_interval_s", self.sample_interval_s),
        ):
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{label} must be positive and finite: {value}"
                )
        if self.load_gap_threshold < 1:
            raise ConfigurationError(
                f"load_gap_threshold must be >= 1: {self.load_gap_threshold}"
            )


@dataclass(eq=False)
class ScenarioSpec:
    """A full cluster scenario: graph + migrants + shared configuration."""

    graph: NodeGraph
    migrants: tuple[MigrantSpec, ...]
    config: SimulationConfig | None = None
    max_events: int | None = None
    #: Background CPU load windows, keyed by node name (see
    #: :class:`repro.cluster.loadgen.BackgroundLoad`).
    background: Mapping[str, Sequence["LoadWindow"]] = field(default_factory=dict)
    #: Sustained-load mode: when set, ``migrants`` may be empty — the
    #: migrations are decided at run time from the arrival stream.
    sustained: SustainedSpec | None = None

    def __post_init__(self) -> None:
        self.migrants = tuple(self.migrants)
        if not self.migrants and self.sustained is None:
            raise MigrationError(
                "a scenario needs at least one migrant (or a sustained section)"
            )
        names = set(self.graph.nodes)
        if self.sustained is not None:
            if _wants_file_server(self.sustained.strategy) and FILE_SERVER not in names:
                raise MigrationError(
                    f"the sustained section uses the FFA scheme but the graph "
                    f"has no {FILE_SERVER!r} node"
                )
            for node in self.sustained.arrivals.hotspot:
                if node not in names:
                    raise MigrationError(
                        f"sustained hotspot names unknown node {node!r} "
                        f"(graph has {len(self.graph.nodes)} nodes)"
                    )
                if node == FILE_SERVER:
                    raise MigrationError(
                        f"sustained hotspot may not include {FILE_SERVER!r}"
                    )
        for i, migrant in enumerate(self.migrants):
            missing = [n for n in migrant.path if n not in names]
            if missing:
                raise MigrationError(
                    f"migrant {i} path {migrant.path} references unknown "
                    f"nodes {missing} (graph has {self.graph.nodes})"
                )
            if _wants_file_server(migrant.strategy) and FILE_SERVER not in names:
                raise MigrationError(
                    f"migrant {i} uses the FFA strategy but the graph has no "
                    f"{FILE_SERVER!r} node"
                )
        for node in self.background:
            if node not in names:
                raise MigrationError(f"background load on unknown node {node!r}")
        cfg = self.config if self.config is not None else SimulationConfig()
        if cfg.faults.active:
            for i, migrant in enumerate(self.migrants):
                if _wants_file_server(migrant.strategy):
                    raise MigrationError(
                        "fault injection requires a deputy-backed scheme; the FFA "
                        "file-server protocol has no retransmission path"
                    )
        if cfg.node_faults.active:
            # Fail at spec construction rather than deep inside the runtime:
            # crash windows and eligibility lists must name graph nodes, and
            # the file server is assumed reliable (FFA's whole premise).
            for node, start, end in cfg.node_faults.crash_windows:
                if node not in names:
                    raise ConfigurationError(
                        f"node_faults crash window [{start}, {end}) names "
                        f"unknown node {node!r} (graph has {self.graph.nodes})"
                    )
                if node == FILE_SERVER:
                    raise ConfigurationError(
                        f"node_faults crash window [{start}, {end}) targets "
                        f"{FILE_SERVER!r}; the file server is assumed reliable"
                    )
            for node in cfg.node_faults.nodes:
                if node not in names:
                    raise ConfigurationError(
                        f"node_faults.nodes entry {node!r} is not in the "
                        f"graph ({self.graph.nodes})"
                    )
                if node == FILE_SERVER:
                    raise ConfigurationError(
                        f"node_faults.nodes may not include {FILE_SERVER!r}; "
                        "the file server is assumed reliable"
                    )

    def resolved_config(self) -> SimulationConfig:
        return self.config if self.config is not None else SimulationConfig()


def two_node_spec(
    workload: "Workload",
    strategy: "MigrationStrategy",
    config: SimulationConfig | None = None,
    with_infod: bool = True,
    shaped_bandwidth_bps: float | None = None,
    shaped_latency_s: float | None = None,
    max_events: int | None = None,
    capacity_pages: int | None = None,
    fault_log: "FaultLog | None" = None,
) -> ScenarioSpec:
    """The classic single-migrant home->dest scenario as a spec."""
    nodes = [HOME, DEST]
    if _wants_file_server(strategy):
        nodes.append(FILE_SERVER)
    links: tuple[LinkSpec, ...] = ()
    if shaped_bandwidth_bps is not None or shaped_latency_s is not None:
        # Validation of the pair happens in LinkSpec.__post_init__.
        links = (
            LinkSpec(
                HOME,
                DEST,
                shaped_bandwidth_bps=shaped_bandwidth_bps,
                shaped_latency_s=shaped_latency_s,
            ),
        )
    migrant = MigrantSpec(
        workload=workload,
        strategy=strategy,
        path=(HOME, DEST),
        with_infod=with_infod,
        capacity_pages=capacity_pages,
        fault_log=fault_log,
    )
    return ScenarioSpec(
        graph=NodeGraph(tuple(nodes), links),
        migrants=(migrant,),
        config=config,
        max_events=max_events,
    )


# ----------------------------------------------------------------------
# Presets and spec files (``repro cluster run``)
# ----------------------------------------------------------------------

_SCHEMES: dict[str, str] = {
    "AMPoM": "AmpomMigration",
    "openMosix": "OpenMosixMigration",
    "FFA": "FfaMigration",
    "NoPrefetch": "NoPrefetchMigration",
}


def make_strategy(scheme: str, prefetch_policy: str | None = None) -> "MigrationStrategy":
    """Instantiate a migration strategy from its scheme name.

    ``prefetch_policy`` names a :data:`repro.core.policy.POLICIES` entry
    to pin on the instance (openMosix, which performs no remote paging,
    rejects any name)."""
    from .. import migration

    try:
        cls = getattr(migration, _SCHEMES[scheme])
    except KeyError:
        raise MigrationError(
            f"unknown scheme {scheme!r}; pick one of {sorted(_SCHEMES)}"
        )
    if prefetch_policy is None:
        return cls()
    return cls(prefetch_policy=prefetch_policy)


#: Simulated run time before the three-hop presets re-migrate (seconds).
THREE_HOP_DELAY_S = 0.25


def _preset_workload(scale: float) -> "Workload":
    from ..workloads.hpcc import hpcc_workload

    return hpcc_workload("DGEMM", 115, scale=scale)


def _preset_config(scale: float, seed: int) -> SimulationConfig:
    from ..experiments.figures import scaled_config

    return scaled_config(scale, seed=seed)


def _preset_pair(scheme: str, scale: float, seed: int) -> ScenarioSpec:
    config = _preset_config(scale, seed)
    return two_node_spec(_preset_workload(scale), make_strategy(scheme), config=config)


def _three_hop_graph(scheme: str) -> NodeGraph:
    nodes = [HOME, "n1", "n2"]
    if _wants_file_server(make_strategy(scheme)):
        nodes.append(FILE_SERVER)
    return NodeGraph(tuple(nodes))


def _preset_three_hop(scheme: str, scale: float, seed: int) -> ScenarioSpec:
    config = _preset_config(scale, seed)
    migrant = MigrantSpec(
        workload=_preset_workload(scale),
        strategy=make_strategy(scheme),
        path=(HOME, "n1", "n2"),
        hop_delays=(THREE_HOP_DELAY_S,),
    )
    return ScenarioSpec(graph=_three_hop_graph(scheme), migrants=(migrant,), config=config)


def _preset_three_hop_lossy(scheme: str, scale: float, seed: int) -> ScenarioSpec:
    if _wants_file_server(make_strategy(scheme)):
        raise MigrationError(
            "fault injection requires a deputy-backed scheme; the FFA "
            "file-server protocol has no retransmission path"
        )
    faults = FaultSpec(
        loss_rate=0.03, duplicate_rate=0.02, delay_rate=0.05, delay_s=ms(2.0)
    )
    config = _preset_config(scale, seed).with_(faults=faults)
    migrant = MigrantSpec(
        workload=_preset_workload(scale),
        strategy=make_strategy(scheme),
        path=(HOME, "n1", "n2"),
        hop_delays=(THREE_HOP_DELAY_S,),
    )
    return ScenarioSpec(graph=_three_hop_graph(scheme), migrants=(migrant,), config=config)


def _preset_contention(scheme: str, scale: float, seed: int) -> ScenarioSpec:
    from ..workloads.hpcc import hpcc_workload

    config = _preset_config(scale, seed)
    migrants = tuple(
        MigrantSpec(
            workload=hpcc_workload("STREAM", 64, scale=scale),
            strategy=make_strategy(scheme),
            path=(HOME, DEST),
            start_s=i * 0.05,
            name=f"stream-{i}",
        )
        for i in range(3)
    )
    nodes = [HOME, DEST]
    if _wants_file_server(make_strategy(scheme)):
        nodes.append(FILE_SERVER)
    return ScenarioSpec(graph=NodeGraph(tuple(nodes)), migrants=migrants, config=config)


def _cluster_nodes(count: int) -> tuple[str, ...]:
    return tuple(f"n{i:03d}" for i in range(count))


def _preset_cluster(
    n_nodes: int,
    n_hot: int,
    rate_hz: float,
    hotspot_rate_hz: float,
    scheme: str,
    scale: float,
    seed: int,
) -> ScenarioSpec:
    """Shared shape of the fleet presets: ``n_nodes`` fully meshed, the
    first ``n_hot`` nodes receiving most of the arrivals (the load skew
    that gives decentralized balancing something to spread out)."""
    nodes = _cluster_nodes(n_nodes)
    # Memory palette scales with the run (64 KiB floor keeps the remote
    # paging phase non-trivial even at tiny scales).
    floor = mib(1) // 16
    choices = tuple(max(int(mib(m) * scale), floor) for m in (2, 4, 8))
    arrivals = ArrivalSpec(
        rate_hz=rate_hz,
        horizon_s=8.0,
        mean_lifetime_s=2.5,
        max_lifetime_s=12.0,
        memory_bytes_choices=choices,
        hotspot=nodes[:n_hot],
        hotspot_rate_hz=hotspot_rate_hz,
    )
    return ScenarioSpec(
        graph=NodeGraph(nodes),
        migrants=(),
        config=_preset_config(scale, seed),
        sustained=SustainedSpec(arrivals=arrivals, scheme=scheme),
    )


def _preset_cluster_32(scheme: str, scale: float, seed: int) -> ScenarioSpec:
    return _preset_cluster(32, 4, 0.25, 1.75, scheme, scale, seed)


def _preset_cluster_300(scheme: str, scale: float, seed: int) -> ScenarioSpec:
    # The Gideon-scale run: a background trickle everywhere plus eight
    # hotspot nodes, as in the paper's 300-node cluster experiments.
    return _preset_cluster(300, 8, 0.02, 1.2, scheme, scale, seed)


#: name -> builder(scheme, scale, seed) for ``repro cluster run --preset``.
PRESETS: dict[str, Callable[[str, float, int], ScenarioSpec]] = {
    "pair": _preset_pair,
    "three-hop": _preset_three_hop,
    "three-hop-lossy": _preset_three_hop_lossy,
    "contention": _preset_contention,
    "cluster_32": _preset_cluster_32,
    "cluster_300": _preset_cluster_300,
}


def build_preset(
    name: str, scheme: str = "AMPoM", scale: float = 1 / 16, seed: int = 0
) -> ScenarioSpec:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise MigrationError(f"unknown preset {name!r}; pick one of {sorted(PRESETS)}")
    return builder(scheme, scale, seed)


def _number(d: Mapping, key: str, default: float, where: str) -> float:
    """``float(d[key])`` (or ``default``); a value that is not a number is a
    :class:`MigrationError` naming ``where`` and the key."""
    value = d.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise MigrationError(f"{where}: {key!r} must be a number, got {value!r}")


def _workload_from_dict(d: Mapping, where: str) -> "Workload":
    from ..workloads.hpcc import hpcc_workload

    kernel = d.get("kernel", "DGEMM")
    memory_mb = _number(d, "memory_mb", 115, where)
    scale = _number(d, "scale", 1 / 16, where)
    return hpcc_workload(kernel, memory_mb, scale=scale)


def _link_from_dict(i: int, ld: Mapping) -> LinkSpec:
    try:
        a, b = ld["a"], ld["b"]
    except KeyError as exc:
        raise MigrationError(f"link {i} is missing required key {exc}")
    try:
        network = NetworkSpec(**ld["network"]) if "network" in ld else None
    except TypeError as exc:
        raise MigrationError(f"bad network of link {i}: {exc}")
    return LinkSpec(
        a=a,
        b=b,
        network=network,
        shaped_bandwidth_bps=ld.get("shaped_bandwidth_bps"),
        shaped_latency_s=ld.get("shaped_latency_s"),
        lossy=ld.get("lossy"),
    )


def _crash_window(w: object) -> tuple[str, float, float]:
    try:
        node, start, end = w
        return str(node), float(start), float(end)
    except (TypeError, ValueError):
        raise MigrationError(
            f"bad node_faults section: crash window {w!r} must be [node, start_s, end_s]"
        )


def scenario_from_dict(d: Mapping) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a plain JSON-style mapping.

    Shape (see docs/CLUSTER.md for a worked example)::

        {"nodes": ["home", "n1", "n2"],
         "links": [{"a": "home", "b": "n1",
                    "shaped_bandwidth_bps": 6e6, "shaped_latency_s": 2e-3}],
         "seed": 0,
         "faults": {"loss_rate": 0.03},
         "node_faults": {"crash_windows": [["n1", 0.5, 0.9]],
                         "suspect_staleness_s": 3.0},
         "migrants": [{"kernel": "dgemm", "memory_mb": 115, "scale": 0.0625,
                       "scheme": "AMPoM", "prefetch_policy": "leap",
                       "path": ["home", "n1", "n2"],
                       "start_s": 0.0, "hop_delays": [0.25]}]}

    A prefetch policy is named per migrant (or in the ``sustained``
    section); a top-level ``"prefetch_policy"`` is rejected.
    """
    if "prefetch_policy" in d:
        raise MigrationError(
            "a top-level 'prefetch_policy' is not supported; name the policy "
            "per migrant or in the 'sustained' section"
        )
    try:
        nodes = d["nodes"]
        if "sustained" in d:
            migrant_dicts = list(d.get("migrants", ()))
        else:
            migrant_dicts = list(d["migrants"])
    except KeyError as exc:
        raise MigrationError(f"scenario spec is missing required key {exc}")
    if not isinstance(nodes, list):
        raise MigrationError(f"'nodes' must be a list of node names, got {nodes!r}")
    sustained = None
    if "sustained" in d:
        sd = dict(d["sustained"])
        try:
            ad = dict(sd.pop("arrivals"))
        except KeyError:
            raise MigrationError("sustained section needs an 'arrivals' object")
        if "memory_bytes_choices" in ad:
            ad["memory_bytes_choices"] = tuple(
                int(x) for x in ad["memory_bytes_choices"]
            )
        if "hotspot" in ad:
            ad["hotspot"] = tuple(ad["hotspot"])
        try:
            sustained = SustainedSpec(arrivals=ArrivalSpec(**ad), **sd)
        except TypeError as exc:
            raise MigrationError(f"bad sustained section: {exc}")
    links = tuple(_link_from_dict(i, ld) for i, ld in enumerate(d.get("links", ())))
    node_faults = dict(d.get("node_faults", {}))
    if "crash_windows" in node_faults:
        node_faults["crash_windows"] = tuple(
            _crash_window(w) for w in node_faults["crash_windows"]
        )
    if "nodes" in node_faults:
        node_faults["nodes"] = tuple(node_faults["nodes"])
    try:
        node_fault_spec = NodeFaultSpec(**node_faults)
    except TypeError as exc:
        raise MigrationError(f"bad node_faults section: {exc}")
    try:
        faults = FaultSpec(**d.get("faults", {}))
    except TypeError as exc:
        raise MigrationError(f"bad faults section: {exc}")
    config = SimulationConfig(
        seed=int(d.get("seed", 0)),
        faults=faults,
        node_faults=node_fault_spec,
    )
    migrants = tuple(
        MigrantSpec(
            workload=_workload_from_dict(md, f"migrant {i}"),
            strategy=make_strategy(md.get("scheme", "AMPoM"), md.get("prefetch_policy")),
            path=tuple(md.get("path", (HOME, DEST))),
            start_s=_number(md, "start_s", 0.0, f"migrant {i}"),
            hop_delays=tuple(md.get("hop_delays", ())),
            with_infod=bool(md.get("with_infod", True)),
            name=md.get("name"),
        )
        for i, md in enumerate(migrant_dicts)
    )
    return ScenarioSpec(
        graph=NodeGraph(tuple(nodes), links),
        migrants=migrants,
        config=config,
        max_events=d.get("max_events"),
        sustained=sustained,
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Parse a JSON scenario spec file (``repro cluster run --spec``)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MigrationError(f"cannot read scenario spec {path}: {exc}")
    if not isinstance(data, dict):
        raise MigrationError(f"scenario spec {path} must be a JSON object")
    return scenario_from_dict(data)


__all__ = [
    "DEST",
    "FILE_SERVER",
    "HOME",
    "LinkSpec",
    "MigrantSpec",
    "NodeGraph",
    "PRESETS",
    "ScenarioSpec",
    "SustainedSpec",
    "THREE_HOP_DELAY_S",
    "build_preset",
    "load_scenario",
    "make_strategy",
    "scenario_from_dict",
    "two_node_spec",
]
