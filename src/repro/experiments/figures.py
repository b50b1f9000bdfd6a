"""Series generators for every figure of the paper's evaluation.

Each ``figureN`` function runs the necessary simulations and returns the
series the corresponding figure plots.  All functions accept ``scale``, a
multiplier on the program sizes (the series keys stay in *paper* MB so the
output reads like the figure); the schemes' relative behaviour is
scale-invariant, see EXPERIMENTS.md for the fidelity discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimulationConfig
from ..cluster.session import ScenarioRuntime
from ..cluster.topology import make_strategy, two_node_spec
from ..migration.executor import ExecutionResult
from ..units import mbit_per_s, mib, ms
from ..workloads.hpcc import hpcc_workload, kernel_sizes_mb
from ..workloads.workingset import WorkingSetDgemmWorkload
from .calibration import gideon_config

KERNELS = ("DGEMM", "STREAM", "RandomAccess", "FFT")
SCHEMES = ("AMPoM", "openMosix", "NoPrefetch")

#: Default size scale for the benchmark harness: program sizes are 1/8 of
#: the paper's, keeping a full figure sweep within seconds of wall time.
DEFAULT_SCALE = 1.0 / 8.0


def scaled_config(scale: float = DEFAULT_SCALE, seed: int = 0) -> SimulationConfig:
    """Gideon-300 configuration adjusted for a size-scaled sweep.

    The dependent-zone cap is scaled with the program size so the
    lookahead : data-structure ratio matches the full-size system —
    a fixed 256-page (1 MiB) cap would span several row panels of a
    size-scaled DGEMM, permitting compute/transfer overlap the full-size
    system cannot achieve (see EXPERIMENTS.md).
    """
    base = gideon_config(seed)
    if scale >= 1.0:
        return base
    cap = max(base.ampom.min_zone_pages, int(base.ampom.max_zone_pages * scale * 2))
    from dataclasses import replace

    return base.with_(ampom=replace(base.ampom, max_zone_pages=cap))


def run_one(
    kernel: str,
    memory_mb: float,
    scheme: str,
    scale: float = DEFAULT_SCALE,
    config: SimulationConfig | None = None,
    shaped_bandwidth_bps: float | None = None,
    shaped_latency_s: float | None = None,
    obs=None,
    **workload_kwargs: object,
) -> ExecutionResult:
    """Run one (kernel, size, scheme) cell of the evaluation.

    ``obs`` optionally attaches a :class:`repro.obs.Observability` bundle
    (span tracer / metrics registry / inspector) to the run.
    """
    workload = hpcc_workload(kernel, memory_mb, scale=scale, **workload_kwargs)
    spec = two_node_spec(
        workload,
        make_strategy(scheme),
        config=config if config is not None else scaled_config(scale),
        shaped_bandwidth_bps=shaped_bandwidth_bps,
        shaped_latency_s=shaped_latency_s,
    )
    return ScenarioRuntime(spec, obs=obs).execute()[0]


@dataclass(slots=True)
class FigureMatrix:
    """Results of the full kernel x size x scheme sweep (figures 5-8, 11)."""

    scale: float
    #: results[(kernel, memory_mb, scheme)] -> ExecutionResult
    results: dict[tuple[str, int, str], ExecutionResult]

    def series(self, kernel: str, scheme: str) -> list[tuple[int, ExecutionResult]]:
        return [
            (mb, self.results[(kernel, mb, scheme)]) for mb in kernel_sizes_mb(kernel)
        ]


def _matrix_cell(
    cell: tuple[str, int, str, float, SimulationConfig | None],
) -> ExecutionResult:
    """One (kernel, size, scheme) run, unpacked from a picklable tuple."""
    kernel, memory_mb, scheme, scale, config = cell
    return run_one(kernel, memory_mb, scheme, scale=scale, config=config)


def run_matrix(
    kernels: tuple[str, ...] = KERNELS,
    schemes: tuple[str, ...] = SCHEMES,
    scale: float = DEFAULT_SCALE,
    config: SimulationConfig | None = None,
    jobs: int | str | None = None,
) -> FigureMatrix:
    """The full sweep behind figures 5, 6, 7, 8, and 11.

    Every cell is a fully pinned independent run, so ``jobs`` fans them
    across worker processes (:func:`repro.cluster.parallel.parallel_map`)
    with bit-identical results at any width.
    """
    from ..cluster.parallel import parallel_map

    keys = [
        (kernel, memory_mb, scheme)
        for kernel in kernels
        for memory_mb in kernel_sizes_mb(kernel)
        for scheme in schemes
    ]
    cells = [(k, mb, s, scale, config) for (k, mb, s) in keys]
    outcomes = parallel_map(_matrix_cell, cells, jobs=jobs)
    return FigureMatrix(scale=scale, results=dict(zip(keys, outcomes)))


# ----------------------------------------------------------------------
# figure 5: migration freeze time
# ----------------------------------------------------------------------
def freeze_time(
    kernel: str,
    memory_mb: float,
    scheme: str,
    scale: float = 1.0,
    config: SimulationConfig | None = None,
) -> float:
    """Freeze time of one migration, without executing the trace.

    Freeze time depends only on the address-space size and the link, so
    this runs at **full paper scale** by default.
    """
    workload = hpcc_workload(kernel, memory_mb, scale=scale)
    spec = two_node_spec(
        workload,
        make_strategy(scheme),
        config=config if config is not None else gideon_config(),
    )
    return ScenarioRuntime(spec).measure_freeze().freeze_time


def _freeze_cell(cell: tuple[str, int, str, SimulationConfig | None]) -> float:
    """One freeze-time measurement, unpacked from a picklable tuple."""
    kernel, mb, scheme, config = cell
    return freeze_time(kernel, mb, scheme, config=config)


def figure5_full_scale(
    kernels: tuple[str, ...] = KERNELS,
    schemes: tuple[str, ...] = SCHEMES,
    config: SimulationConfig | None = None,
    jobs: int | str | None = None,
) -> dict[str, dict[str, list[tuple[int, float]]]]:
    """Figure 5 at the paper's actual program sizes (freeze-only runs).

    The full-size freeze runs are the slowest sweep in the suite; ``jobs``
    fans the independent cells across worker processes.
    """
    from ..cluster.parallel import parallel_map

    keys = [
        (kernel, scheme, mb)
        for kernel in kernels
        for scheme in schemes
        for mb in kernel_sizes_mb(kernel)
    ]
    cells = [(kernel, mb, scheme, config) for (kernel, scheme, mb) in keys]
    freezes = dict(zip(keys, parallel_map(_freeze_cell, cells, jobs=jobs)))
    return {
        kernel: {
            scheme: [
                (mb, freezes[(kernel, scheme, mb)]) for mb in kernel_sizes_mb(kernel)
            ]
            for scheme in schemes
        }
        for kernel in kernels
    }


def figure5(matrix: FigureMatrix) -> dict[str, dict[str, list[tuple[int, float]]]]:
    """``{kernel: {scheme: [(memory_mb, freeze_seconds), ...]}}``."""
    return {
        kernel: {
            scheme: [(mb, r.freeze_time) for mb, r in matrix.series(kernel, scheme)]
            for scheme in SCHEMES
            if (kernel, kernel_sizes_mb(kernel)[0], scheme) in matrix.results
        }
        for kernel in KERNELS
        if any(k == kernel for k, _, _ in matrix.results)
    }


# ----------------------------------------------------------------------
# figure 6: total execution time
# ----------------------------------------------------------------------
def figure6(matrix: FigureMatrix) -> dict[str, dict[str, list[tuple[int, float]]]]:
    """``{kernel: {scheme: [(memory_mb, total_seconds), ...]}}``."""
    return {
        kernel: {
            scheme: [(mb, r.total_time) for mb, r in matrix.series(kernel, scheme)]
            for scheme in SCHEMES
            if (kernel, kernel_sizes_mb(kernel)[0], scheme) in matrix.results
        }
        for kernel in KERNELS
        if any(k == kernel for k, _, _ in matrix.results)
    }


# ----------------------------------------------------------------------
# figure 7: number of page fault requests (AMPoM vs NoPrefetch)
# ----------------------------------------------------------------------
def figure7(matrix: FigureMatrix) -> dict[str, dict[str, list[tuple[int, int]]]]:
    """``{kernel: {scheme: [(memory_mb, fault_requests), ...]}}``."""
    return {
        kernel: {
            scheme: [
                (mb, r.counters.page_fault_requests)
                for mb, r in matrix.series(kernel, scheme)
            ]
            for scheme in ("AMPoM", "NoPrefetch")
            if (kernel, kernel_sizes_mb(kernel)[0], scheme) in matrix.results
        }
        for kernel in KERNELS
        if any(k == kernel for k, _, _ in matrix.results)
    }


# ----------------------------------------------------------------------
# figure 8: prefetched pages per page fault (AMPoM)
# ----------------------------------------------------------------------
def figure8(matrix: FigureMatrix) -> dict[str, list[tuple[int, float]]]:
    """``{kernel: [(memory_mb, prefetched_pages_per_fault), ...]}``."""
    return {
        kernel: [
            (mb, r.counters.prefetched_pages_per_fault)
            for mb, r in matrix.series(kernel, "AMPoM")
        ]
        for kernel in KERNELS
        if any(k == kernel for k, _, _ in matrix.results)
    }


# ----------------------------------------------------------------------
# figure 9: adaptation to network performance
# ----------------------------------------------------------------------
def figure9(
    scale: float = DEFAULT_SCALE,
    config: SimulationConfig | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Percentage increase in execution time vs openMosix.

    ``{kernel_label: {network: {scheme: pct_increase}}}`` for DGEMM 115 MB
    and RandomAccess 129 MB at 100 Mb/s and at 6 Mb/s / 2 ms (the
    tc-shaped broadband link of section 5.5).
    """
    cases = (("DGEMM", 115), ("RandomAccess", 129))
    networks: dict[str, dict[str, float | None]] = {
        "100Mb/s": {"bw": None, "lat": None},
        "6Mb/s": {"bw": mbit_per_s(6.0), "lat": ms(2.0)},
    }
    out: dict[str, dict[str, dict[str, float]]] = {}
    for kernel, memory_mb in cases:
        label = f"{kernel} ({memory_mb}MB)"
        out[label] = {}
        for net_label, shape in networks.items():
            times = {
                scheme: run_one(
                    kernel,
                    memory_mb,
                    scheme,
                    scale=scale,
                    config=config,
                    shaped_bandwidth_bps=shape["bw"],
                    shaped_latency_s=shape["lat"],
                ).total_time
                for scheme in SCHEMES
            }
            base = times["openMosix"]
            out[label][net_label] = {
                scheme: (times[scheme] - base) / base * 100.0
                for scheme in ("AMPoM", "NoPrefetch")
            }
    return out


# ----------------------------------------------------------------------
# figure 10: migration of processes with small working sets
# ----------------------------------------------------------------------
def figure10(
    scale: float = DEFAULT_SCALE,
    config: SimulationConfig | None = None,
    allocated_mb: int = 575,
    working_set_mbs: tuple[int, ...] = (115, 230, 345, 460, 575),
) -> dict[str, list[tuple[int, float]]]:
    """``{scheme: [(working_set_mb, total_seconds), ...]}`` for the
    575 MB-allocation DGEMM of section 5.6."""
    out: dict[str, list[tuple[int, float]]] = {"openMosix": [], "AMPoM": []}
    for ws_mb in working_set_mbs:
        for scheme in ("openMosix", "AMPoM"):
            workload = WorkingSetDgemmWorkload(
                memory_bytes=mib(allocated_mb * scale),
                working_set_bytes=mib(ws_mb * scale),
            )
            spec = two_node_spec(
                workload,
                make_strategy(scheme),
                config=config if config is not None else scaled_config(scale),
            )
            result = ScenarioRuntime(spec).execute()[0]
            out[scheme].append((ws_mb, result.total_time))
    return out


# ----------------------------------------------------------------------
# figure 11: overheads of AMPoM
# ----------------------------------------------------------------------
def figure11(matrix: FigureMatrix) -> dict[str, list[tuple[int, float]]]:
    """``{kernel: [(memory_mb, analysis_overhead_pct), ...]}`` — the time
    spent determining the dependent zone as % of total execution time."""
    return {
        kernel: [
            (mb, r.budget.analysis_overhead_fraction * 100.0)
            for mb, r in matrix.series(kernel, "AMPoM")
        ]
        for kernel in KERNELS
        if any(k == kernel for k, _, _ in matrix.results)
    }


# ----------------------------------------------------------------------
# multi-hop re-migration (section 3.2; not a paper figure)
# ----------------------------------------------------------------------
def three_hop_comparison(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    schemes: tuple[str, ...] = SCHEMES,
) -> dict[str, dict[str, float]]:
    """``{scheme: {freeze_s, run_s, total_s, hops}}`` on the three-hop
    preset (home -> n1 -> n2, re-migrating after a fixed run interval).

    The two freezes are summed into ``freeze_s``, so the table shows how
    each scheme pays for *re*-migration: openMosix re-ships the whole
    resident set on every hop, AMPoM freezes only the second MPT transfer
    and re-fetches the rest through the n1 transit deputy.
    """
    from ..cluster.topology import build_preset

    out: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        spec = build_preset("three-hop", scheme=scheme, scale=scale, seed=seed)
        result = ScenarioRuntime(spec).execute()[0]
        out[scheme] = {
            "freeze_s": result.freeze_time,
            "run_s": result.run_time,
            "total_s": result.total_time,
            "hops": result.extra.get("hops", 1.0),
        }
    return out


def cluster_sustained_figure(
    preset: str = "cluster_32",
    policies: tuple[str, ...] = ("threshold", "balanced"),
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
) -> dict[str, dict]:
    """Cluster-utilization and cumulative-migration series per policy.

    ``{policy: {"utilization": [(t, busy_fraction)], "migrations":
    [(t, cumulative_count)], "makespan", "migrations_total"}}`` for one
    sustained-load preset — the fleet-scale counterpart of the paper's
    Gideon figures.  Only phase 1 (the decentralized scheduling
    simulation) runs here; the series are the utilization sampler's
    ticks, deterministic per seed.
    """
    import dataclasses

    from ..cluster.sustained import SustainedLoadDriver
    from ..cluster.topology import build_preset

    out: dict[str, dict] = {}
    for policy in policies:
        spec = build_preset(preset, scale=scale, seed=seed)
        sustained = dataclasses.replace(spec.sustained, policy=policy)
        driver = SustainedLoadDriver(spec.graph, sustained, config=spec.config)
        driver.plan()
        report = driver.report
        out[policy] = {
            "utilization": [
                (s.time, s.busy_nodes / report.nodes) for s in report.utilization
            ],
            "migrations": [(s.time, s.migrations) for s in report.utilization],
            "makespan": report.makespan,
            "migrations_total": report.migrations,
        }
    return out


def cluster_node_heatmap(
    preset: str = "cluster_32",
    policy: str = "threshold",
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    series: str = "load",
) -> dict:
    """Per-node x time matrix of one fleet-telemetry series.

    Runs phase 1 of one sustained-load preset with ``repro.obs.fleet``
    armed and reshapes the sampled series (``load``,
    ``in_flight_migrations``, ``migrations_out``, ``gossip_staleness_s``,
    ``suspected_peers``) into ``{"times": [...], "nodes": [...],
    "values": [[row per node]]}`` — the `repro cluster figure --heatmap`
    payload.  Deterministic per seed, like every other figure.
    """
    import dataclasses

    from ..cluster.sustained import SustainedLoadDriver
    from ..cluster.topology import build_preset
    from ..obs import Observability

    spec = build_preset(preset, scale=scale, seed=seed)
    sustained = dataclasses.replace(spec.sustained, policy=policy)
    driver = SustainedLoadDriver(spec.graph, sustained, config=spec.config)
    driver.obs = Observability.enabled(trace=False, metrics=False, fleet=True)
    driver.plan()
    fleet = driver.obs.fleet
    nodes = [n for n in fleet.nodes() if fleet.series(n, series)]
    times = sorted({t for n in nodes for t, _ in fleet.series(n, series)})
    index = {t: i for i, t in enumerate(times)}
    values = []
    for node in nodes:
        row = [0.0] * len(times)
        for t, v in fleet.series(node, series):
            row[index[t]] = v
        values.append(row)
    return {"series": series, "times": times, "nodes": nodes, "values": values}


# ----------------------------------------------------------------------
# headline claims (abstract / sections 5.2-5.4)
# ----------------------------------------------------------------------
def headline_claims(matrix: FigureMatrix) -> dict[str, dict[str, float]]:
    """Per-kernel headline metrics on the largest configuration:

    * ``freeze_avoided_pct`` — AMPoM's freeze-time reduction vs openMosix
      (abstract: 98%);
    * ``faults_prevented_pct`` — fault requests prevented vs NoPrefetch
      (abstract: 85-99%);
    * ``ampom_overhead_pct`` — AMPoM runtime vs openMosix (abstract: 0-5%);
    * ``noprefetch_penalty_pct`` — NoPrefetch runtime vs openMosix
      (section 5.3: +35/51/20/41%).
    """
    out: dict[str, dict[str, float]] = {}
    for kernel in KERNELS:
        largest = kernel_sizes_mb(kernel)[-1]
        try:
            ampom = matrix.results[(kernel, largest, "AMPoM")]
            openmosix = matrix.results[(kernel, largest, "openMosix")]
            noprefetch = matrix.results[(kernel, largest, "NoPrefetch")]
        except KeyError:
            continue
        out[kernel] = {
            "freeze_avoided_pct": (
                (openmosix.freeze_time - ampom.freeze_time) / openmosix.freeze_time * 100.0
            ),
            "faults_prevented_pct": (
                (
                    noprefetch.counters.page_fault_requests
                    - ampom.counters.page_fault_requests
                )
                / noprefetch.counters.page_fault_requests
                * 100.0
            ),
            "ampom_overhead_pct": (
                (ampom.total_time - openmosix.total_time) / openmosix.total_time * 100.0
            ),
            "noprefetch_penalty_pct": (
                (noprefetch.total_time - openmosix.total_time)
                / openmosix.total_time
                * 100.0
            ),
        }
    return out
