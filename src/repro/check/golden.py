"""Golden-trace regression harness (``repro check record`` / ``diff``).

Every scenario in :data:`SCENARIOS` is a fully pinned end-to-end run —
kernel, size, scheme, scale, seed, and fault schedule — executed with the
invariant checker and differential oracle enabled.  ``record`` serializes
each run's event log to a JSONL file (one header line with the scenario
parameters, one line per fault with its exact time/page/kind/stall, one
footer line with every counter and the time-budget split); ``diff``
re-runs the matrix and compares structurally against the stored files, so
*any* behavioral drift — a reordered fault, a different prefetch depth, a
nanosecond of extra stall — fails with a precise first-divergence report.

Golden files live in ``tests/golden/`` and are committed; refresh them
with ``repro check record`` only when a change is *meant* to alter
behavior, and say so in the commit message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..config import CheckSpec, FaultSpec, NodeFaultSpec, SimulationConfig
from ..metrics.eventlog import FaultLog

#: Directory (relative to the repo root) where golden traces live.
DEFAULT_GOLDEN_DIR = Path("tests") / "golden"

#: Format version; bump when the serialization itself changes shape.
TRACE_FORMAT = 1


@dataclass(frozen=True)
class GoldenScenario:
    """One pinned run of the scenario matrix."""

    name: str
    kernel: str
    memory_mb: int
    scheme: str
    scale: float = 1.0 / 16.0
    seed: int = 0
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: Multi-hop migration path (empty = the classic home->dest run).
    path: tuple[str, ...] = ()
    hop_delays: tuple[float, ...] = ()
    #: Sustained-load cluster preset (empty = a fixed-migrant scenario).
    #: When set, ``kernel``/``memory_mb`` are ignored and the run is a
    #: seeded arrival stream under the named decentralized policy.
    preset: str = ""
    policy: str = ""
    #: Named prefetch policy (see :data:`repro.core.policy.POLICIES`);
    #: empty = the scheme's own default (AMPoM for the AMPoM scheme).
    prefetch_policy: str = ""
    #: Whole-node crash schedule of a multi-hop scenario (inactive = no
    #: node ever crashes).  A node-fault scenario's footer also carries the
    #: run's reliability counters and its fault-injection schedule.
    node_faults: NodeFaultSpec = field(default_factory=NodeFaultSpec)

    def header(self) -> dict:
        header = {
            "format": TRACE_FORMAT,
            "scenario": self.name,
            "kernel": self.kernel,
            "memory_mb": self.memory_mb,
            "scheme": self.scheme,
            "scale": self.scale,
            "seed": self.seed,
            "loss_rate": self.faults.loss_rate,
            "duplicate_rate": self.faults.duplicate_rate,
            "delay_rate": self.faults.delay_rate,
            "deputy_crash_windows": [list(w) for w in self.faults.deputy_crash_windows],
        }
        if self.path:
            # Only multi-hop scenarios carry these keys, so the original
            # two-node golden files stay byte-identical.
            header["path"] = list(self.path)
            header["hop_delays"] = list(self.hop_delays)
        if self.preset:
            # Likewise: only sustained-load scenarios carry these keys.
            header["preset"] = self.preset
            header["policy"] = self.policy
        if self.prefetch_policy:
            # Same discipline again: only policy-pinned scenarios carry
            # the key, so every pre-existing golden file stays identical.
            header["prefetch_policy"] = self.prefetch_policy
        if self.node_faults.active:
            # And again: only node-fault scenarios carry the crash windows.
            header["node_crash_windows"] = [
                list(w) for w in self.node_faults.crash_windows
            ]
        return header


#: The fixed scenario matrix: seed workloads × fault specs.  Small sizes
#: and 1/16 scale keep a full record/diff sweep within a few seconds.
SCENARIOS: tuple[GoldenScenario, ...] = (
    GoldenScenario("dgemm_ampom", "DGEMM", 115, "AMPoM"),
    GoldenScenario("stream_ampom", "STREAM", 115, "AMPoM"),
    GoldenScenario("randomaccess_ampom", "RandomAccess", 129, "AMPoM"),
    GoldenScenario("fft_ampom", "FFT", 129, "AMPoM"),
    GoldenScenario("dgemm_noprefetch", "DGEMM", 115, "NoPrefetch"),
    GoldenScenario("dgemm_openmosix", "DGEMM", 115, "openMosix"),
    GoldenScenario(
        "dgemm_ampom_lossy",
        "DGEMM",
        115,
        "AMPoM",
        seed=7,
        faults=FaultSpec(loss_rate=0.05, duplicate_rate=0.02, delay_rate=0.1, delay_s=0.005),
    ),
    GoldenScenario(
        "stream_ampom_crash",
        "STREAM",
        115,
        "AMPoM",
        seed=3,
        faults=FaultSpec(deputy_crash_windows=((0.5, 0.9),)),
    ),
    # Multi-hop re-migration (section 3.2): home -> n1 -> n2 with a
    # transit deputy left on n1 (AMPoM), a full re-ship (openMosix), a
    # re-flush to the file server (FFA), and pure demand paging through
    # the deputy chain (NoPrefetch, clean and lossy).
    GoldenScenario(
        "three_hop_ampom", "DGEMM", 115, "AMPoM",
        path=("home", "n1", "n2"), hop_delays=(0.25,),
    ),
    GoldenScenario(
        "three_hop_openmosix", "DGEMM", 115, "openMosix",
        path=("home", "n1", "n2"), hop_delays=(0.25,),
    ),
    GoldenScenario(
        "three_hop_ffa", "DGEMM", 115, "FFA",
        path=("home", "n1", "n2"), hop_delays=(0.25,),
    ),
    GoldenScenario(
        "three_hop_noprefetch", "DGEMM", 115, "NoPrefetch",
        path=("home", "n1", "n2"), hop_delays=(0.25,),
    ),
    GoldenScenario(
        "three_hop_noprefetch_lossy", "DGEMM", 115, "NoPrefetch",
        seed=7,
        faults=FaultSpec(loss_rate=0.05, duplicate_rate=0.02, delay_rate=0.1, delay_s=0.005),
        path=("home", "n1", "n2"), hop_delays=(0.25,),
    ),
    GoldenScenario(
        "three_hop_ampom_lossy", "DGEMM", 115, "AMPoM",
        seed=7,
        faults=FaultSpec(loss_rate=0.05, duplicate_rate=0.02, delay_rate=0.1, delay_s=0.005),
        path=("home", "n1", "n2"), hop_delays=(0.25,),
    ),
    # The node-failure lifecycle on the same journey.  Recovery: n1 dies
    # inside the first freeze (abort, then retry), n2 is dark at the
    # re-hop (abort, wait out its restart), and n1 dies again under its
    # transit deputy (chain repair); the migrant completes.  Home kill:
    # n2 is dark at the re-hop, then the home node dies and takes the
    # migrant with it on its second leg.
    GoldenScenario(
        "three_hop_ampom_node_recovery", "DGEMM", 115, "AMPoM",
        path=("home", "n1", "n2"), hop_delays=(0.25,),
        node_faults=NodeFaultSpec(
            crash_windows=(("n1", 0.001, 0.05), ("n2", 0.2, 0.5), ("n1", 0.7, 0.9))
        ),
    ),
    GoldenScenario(
        "three_hop_ampom_home_kill", "DGEMM", 115, "AMPoM",
        path=("home", "n1", "n2"), hop_delays=(0.25,),
        node_faults=NodeFaultSpec(crash_windows=(("n2", 0.2, 0.5), ("home", 0.6, 5.0))),
    ),
    # Mid-scale sustained load: the 32-node arrival stream under each
    # decentralized migration policy.  These pin the whole fleet path —
    # arrival draws, gossip dissemination, policy decisions, and every
    # executed migration — in one trace per policy.
    GoldenScenario(
        "cluster_32_threshold", "arrival-stream", 0, "AMPoM",
        seed=11, preset="cluster_32", policy="threshold",
    ),
    GoldenScenario(
        "cluster_32_balanced", "arrival-stream", 0, "AMPoM",
        seed=11, preset="cluster_32", policy="balanced",
    ),
    # Prefetch-policy arena members (see docs/POLICIES.md): the same
    # AMPoM-freeze runs with a non-default policy pinned by name.  These
    # pin the whole policy layer — registry resolution, the Leap stride
    # detector's trend votes, and the Linux read-ahead window doubling.
    GoldenScenario("dgemm_leap", "DGEMM", 115, "AMPoM", prefetch_policy="leap"),
    GoldenScenario(
        "randomaccess_leap", "RandomAccess", 129, "AMPoM", prefetch_policy="leap"
    ),
    GoldenScenario(
        "stream_readahead", "STREAM", 115, "AMPoM",
        prefetch_policy="linux-readahead",
    ),
)


# ----------------------------------------------------------------------
# running + serialization
# ----------------------------------------------------------------------
def _scenario_config(scenario: GoldenScenario) -> SimulationConfig:
    from ..experiments import figures

    config = figures.scaled_config(scenario.scale, seed=scenario.seed)
    if scenario.faults.active:
        config = config.with_(faults=scenario.faults)
    if scenario.node_faults.active:
        config = config.with_(node_faults=scenario.node_faults)
    # Golden runs double as an invariant/oracle sweep; checks never alter
    # the recorded trace (they are pure observers).
    return config.with_(checks=CheckSpec(enabled=True))


def run_scenario(scenario: GoldenScenario, obs=None) -> list[str]:
    """Execute one scenario; return its serialized JSONL lines.

    ``obs`` optionally attaches a :class:`repro.obs.Observability` bundle
    to the run.  Tracing is a pure observer, so the returned lines must be
    byte-identical with or without it — ``repro trace golden`` gates
    exactly that.
    """
    from ..cluster.session import ScenarioRuntime
    from ..cluster.topology import (
        DEST,
        FILE_SERVER,
        HOME,
        MigrantSpec,
        NodeGraph,
        ScenarioSpec,
        _wants_file_server,
        make_strategy,
    )
    from ..workloads.hpcc import hpcc_workload

    if scenario.preset:
        return _run_sustained_scenario(scenario, obs=obs)

    fault_log = FaultLog()
    workload = hpcc_workload(scenario.kernel, scenario.memory_mb, scale=scenario.scale)
    strategy = make_strategy(scenario.scheme, scenario.prefetch_policy or None)
    path = scenario.path or (HOME, DEST)
    nodes = list(path)
    if _wants_file_server(strategy):
        nodes.append(FILE_SERVER)
    migrant = MigrantSpec(
        workload=workload,
        strategy=strategy,
        path=path,
        hop_delays=scenario.hop_delays,
        fault_log=fault_log,
    )
    runtime = ScenarioRuntime(
        ScenarioSpec(
            graph=NodeGraph(tuple(nodes)),
            migrants=(migrant,),
            config=_scenario_config(scenario),
        ),
        obs=obs,
    )
    result = runtime.execute()[0]
    footer: dict = {}
    if scenario.node_faults.active:
        footer["reliability"] = runtime.node_stats.as_dict()
        footer["fault_events"] = runtime.injection_log.schedule()

    lines = [json.dumps(scenario.header(), sort_keys=True)]
    for event in fault_log.events():
        lines.append(
            json.dumps(
                {
                    "t": event.time,
                    "vpn": event.vpn,
                    "kind": event.kind.value,
                    "prefetched": event.prefetched,
                    "stall": event.stall,
                },
                sort_keys=True,
            )
        )
    footer.update(
        freeze_time_s=result.freeze_time,
        run_time_s=result.run_time,
        wasted_pages=result.wasted_pages,
        budget=result.budget.as_dict(),
        counters=result.counters.as_dict(),
    )
    lines.append(json.dumps(footer, sort_keys=True))
    return lines


def _run_sustained_scenario(scenario: GoldenScenario, obs=None) -> list[str]:
    """Serialize one sustained-load preset run: header line, one line per
    migration decision, one footer with the fleet-level counters and the
    full utilization series."""
    import dataclasses

    from ..cluster.sustained import SustainedLoadDriver
    from ..cluster.topology import build_preset

    spec = build_preset(
        scenario.preset, scheme=scenario.scheme, scale=scenario.scale, seed=scenario.seed
    )
    sustained = dataclasses.replace(spec.sustained, policy=scenario.policy)
    driver = SustainedLoadDriver(spec.graph, sustained, config=_scenario_config(scenario))
    result = driver.execute(obs=obs)
    report = result.report

    lines = [json.dumps(scenario.header(), sort_keys=True)]
    for decision in report.decisions:
        lines.append(json.dumps(decision, sort_keys=True))
    lines.append(
        json.dumps(
            {
                "arrivals": report.arrivals,
                "completed": report.completed,
                "makespan_s": report.makespan,
                "migrations": report.migrations,
                "total_frozen_time_s": report.total_frozen_time,
                "utilization": [
                    [s.time, s.busy_nodes, s.mean_load, s.migrations]
                    for s in report.utilization
                ],
            },
            sort_keys=True,
        )
    )
    return lines


def record_scenarios(
    out_dir: Path | str = DEFAULT_GOLDEN_DIR,
    scenarios: Iterable[GoldenScenario] = SCENARIOS,
    jobs: int | str | None = None,
) -> list[Path]:
    """Run the matrix and write one ``<name>.jsonl`` per scenario.

    ``jobs`` fans the independent scenario runs across worker processes
    (see :func:`repro.cluster.parallel.parallel_map`); every scenario is
    fully pinned, so the recorded traces are byte-identical at any width.
    """
    from ..cluster.parallel import parallel_map

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenarios = list(scenarios)
    traces = parallel_map(run_scenario, scenarios, jobs=jobs)
    written: list[Path] = []
    for scenario, lines in zip(scenarios, traces):
        path = out / f"{scenario.name}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


# ----------------------------------------------------------------------
# structural diff
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TraceDivergence:
    """First structural difference found in one scenario's trace."""

    scenario: str
    line: int
    reason: str

    def __str__(self) -> str:
        return f"{self.scenario}:{self.line}: {self.reason}"


def _diff_lines(scenario: str, golden: list[str], fresh: list[str]) -> TraceDivergence | None:
    for i, (a, b) in enumerate(zip(golden, fresh), start=1):
        if a == b:
            continue
        try:
            obj_a, obj_b = json.loads(a), json.loads(b)
        except json.JSONDecodeError:
            return TraceDivergence(scenario, i, f"unparseable line: {a!r} vs {b!r}")
        keys = sorted(set(obj_a) | set(obj_b))
        for key in keys:
            va, vb = obj_a.get(key, "<absent>"), obj_b.get(key, "<absent>")
            if va != vb:
                return TraceDivergence(
                    scenario, i, f"field {key!r}: golden={va!r} current={vb!r}"
                )
        return TraceDivergence(scenario, i, "lines differ only in key order")
    if len(golden) != len(fresh):
        return TraceDivergence(
            scenario,
            min(len(golden), len(fresh)) + 1,
            f"trace length changed: golden has {len(golden)} lines, "
            f"current run has {len(fresh)}",
        )
    return None


def diff_scenarios(
    golden_dir: Path | str = DEFAULT_GOLDEN_DIR,
    scenarios: Iterable[GoldenScenario] = SCENARIOS,
    jobs: int | str | None = None,
) -> list[TraceDivergence]:
    """Re-run the matrix and structurally diff against the stored traces.

    Returns one :class:`TraceDivergence` per diverging or missing
    scenario; an empty list means no behavioral drift.  ``jobs`` fans the
    re-runs across worker processes; divergences are still reported in
    scenario order.
    """
    from ..cluster.parallel import parallel_map

    golden = Path(golden_dir)
    scenarios = list(scenarios)
    present = [s for s in scenarios if (golden / f"{s.name}.jsonl").exists()]
    fresh_by_name = dict(
        zip((s.name for s in present), parallel_map(run_scenario, present, jobs=jobs))
    )
    divergences: list[TraceDivergence] = []
    for scenario in scenarios:
        path = golden / f"{scenario.name}.jsonl"
        if not path.exists():
            divergences.append(
                TraceDivergence(
                    scenario.name, 0, f"golden trace missing: {path} (run `repro check record`)"
                )
            )
            continue
        stored = path.read_text().splitlines()
        divergence = _diff_lines(scenario.name, stored, fresh_by_name[scenario.name])
        if divergence is not None:
            divergences.append(divergence)
    return divergences


__all__ = [
    "DEFAULT_GOLDEN_DIR",
    "GoldenScenario",
    "SCENARIOS",
    "TraceDivergence",
    "diff_scenarios",
    "record_scenarios",
    "run_scenario",
]
