"""Command-line interface: run migrations and regenerate paper artifacts.

Examples
--------
::

    python -m repro run --kernel DGEMM --mb 115 --scheme AMPoM
    python -m repro run --kernel STREAM --mb 230 --scheme NoPrefetch --broadband
    python -m repro run --case three_hop --trace trace.json
    python -m repro freeze --kernel DGEMM --mb 575 --scheme openMosix
    python -m repro figure 5
    python -m repro figure 10 --scale 0.125
    python -m repro table1
    python -m repro headline --scale 0.0625
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Sequence

from .config import FaultSpec, NetworkSpec, RetrySpec
from .cluster.session import ScenarioRuntime
from .cluster.topology import make_strategy, two_node_spec
from .errors import ConfigurationError, MigrationError
from .experiments import figures, tables
from .metrics.report import format_table
from .workloads.hpcc import hpcc_workload

KERNEL_CHOICES = figures.KERNELS
SCHEME_CHOICES = figures.SCHEMES
TRACE_FORMATS = ("perfetto", "jsonl", "flame")

#: `run` flags that shape a --kernel/--mb/--scheme cell, with the value
#: each takes when not given; a --case run fixes its own cell and
#: rejects them all.
_CELL_FLAGS = {
    "prefetch_policy": None,
    "scale": figures.DEFAULT_SCALE,
    "seed": 0,
    "broadband": False,
    "capacity_pages": None,
    "loss_rate": 0.0,
    "dup_rate": 0.0,
    "delay_rate": 0.0,
    "delay_ms": 5.0,
    "link_down": None,
    "deputy_crash": None,
    "retry_timeout_ms": None,
    "max_retries": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMPoM reproduction: lightweight process migration and "
        "memory prefetching in openMosix (IPDPS 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    from .experiments.bench import CASES as _BENCH_CASES
    from .experiments.bench import TRACE_CASES as _TRACE_CASES

    run = sub.add_parser(
        "run",
        help="run one migration experiment",
        description="Run one (kernel, mb, scheme) cell, or one single-migrant "
        "`repro bench` case, and print its summary.  Give either --case or "
        "all of --kernel, --mb and --scheme.",
    )
    run.add_argument(
        "--case",
        choices=_TRACE_CASES,
        default=None,
        help="a single-migrant `repro bench` case (alternative to "
        "--kernel/--mb/--scheme; takes no cell-shaping flag)",
    )
    run.add_argument("--kernel", choices=KERNEL_CHOICES, default=None)
    run.add_argument("--mb", type=float, default=None, help="program size in paper MB")
    run.add_argument("--scheme", choices=SCHEME_CHOICES, default=None)
    run.add_argument(
        "--prefetch-policy",
        default=None,
        metavar="NAME",
        help="prefetch policy to pair with the scheme (ampom, leap, "
        "linux-readahead, readahead-<k>, noprefetch; see docs/POLICIES.md)",
    )
    run.add_argument(
        "--scale",
        type=float,
        default=None,
        help=f"size scale factor (default {figures.DEFAULT_SCALE:g})",
    )
    run.add_argument(
        "--broadband",
        action="store_true",
        default=None,
        help="use the section-5.5 broadband network (6 Mb/s, 2 ms)",
    )
    run.add_argument(
        "--capacity-pages",
        type=int,
        default=None,
        help="destination RAM limit (enables the LRU memory-pressure model)",
    )
    run.add_argument("--seed", type=int, default=None, help="seed (default 0)")
    run.add_argument(
        "--json", action="store_true", help="emit the result as a JSON object"
    )
    obs_grp = run.add_argument_group(
        "observability", "span tracing & telemetry (see docs/OBSERVABILITY.md)"
    )
    obs_grp.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a span trace of the run and write it to PATH",
    )
    obs_grp.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="perfetto",
        help="trace file format (default: perfetto trace-event JSON)",
    )
    obs_grp.add_argument(
        "--metrics",
        action="store_true",
        help="collect histogram/counter/gauge metrics and print the report",
    )
    obs_grp.add_argument(
        "--inspect",
        type=float,
        default=None,
        metavar="SECONDS",
        help="echo live run snapshots every SECONDS of simulated time",
    )
    faults = run.add_argument_group(
        "fault injection", "seeded network/node faults (see docs/FAULTS.md)"
    )
    faults.add_argument(
        "--loss-rate", type=float, default=None, help="message loss probability"
    )
    faults.add_argument(
        "--dup-rate", type=float, default=None, help="message duplication probability"
    )
    faults.add_argument(
        "--delay-rate", type=float, default=None, help="message delay probability"
    )
    faults.add_argument(
        "--delay-ms",
        type=float,
        default=None,
        help="extra delay per delayed message (default 5)",
    )
    faults.add_argument(
        "--link-down",
        nargs=2,
        type=float,
        action="append",
        metavar=("START", "END"),
        default=None,
        help="link outage window in seconds after resume (repeatable)",
    )
    faults.add_argument(
        "--deputy-crash",
        nargs=2,
        type=float,
        action="append",
        metavar=("START", "END"),
        default=None,
        help="deputy crash/restart window in simulation seconds (repeatable)",
    )
    faults.add_argument(
        "--retry-timeout-ms",
        type=float,
        default=None,
        help="base retransmission timeout (default from RetrySpec)",
    )
    faults.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retransmission attempts before giving up",
    )

    freeze = sub.add_parser(
        "freeze", help="measure only the migration freeze (full scale)"
    )
    freeze.add_argument("--kernel", choices=KERNEL_CHOICES, required=True)
    freeze.add_argument("--mb", type=float, required=True)
    freeze.add_argument("--scheme", choices=SCHEME_CHOICES, required=True)

    figure = sub.add_parser("figure", help="regenerate one figure's series")
    figure.add_argument("number", type=int, choices=(5, 6, 7, 8, 9, 10, 11))
    figure.add_argument("--scale", type=float, default=figures.DEFAULT_SCALE)
    figure.add_argument(
        "--jobs",
        default="auto",
        help="worker processes for the sweep (a count, or 'auto' for one "
        "per CPU; results are identical at any width)",
    )

    sub.add_parser("table1", help="print table 1 (HPCC sizes)")

    export = sub.add_parser(
        "export", help="write all figure series to a long-format CSV"
    )
    export.add_argument("path", help="output CSV path")
    export.add_argument("--scale", type=float, default=figures.DEFAULT_SCALE)

    headline = sub.add_parser("headline", help="print the headline-claim summary")
    headline.add_argument("--scale", type=float, default=figures.DEFAULT_SCALE)

    cluster = sub.add_parser(
        "cluster",
        help="declarative cluster scenarios (see docs/CLUSTER.md)",
        description="Run a declarative ScenarioSpec — a node graph with "
        "per-link overrides and any number of (possibly multi-hop) "
        "migrants — from a named preset or a JSON spec file.",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    crun = cluster_sub.add_parser(
        "run", help="execute a preset or a JSON scenario spec file"
    )
    from .cluster.topology import PRESETS as _CLUSTER_PRESETS

    source = crun.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--preset",
        choices=tuple(_CLUSTER_PRESETS),
        default=None,
        help="named scenario preset",
    )
    source.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON scenario spec file (shape: see docs/CLUSTER.md)",
    )
    crun.add_argument(
        "--scheme",
        choices=("AMPoM", "openMosix", "FFA", "NoPrefetch"),
        default=None,
        help="migration scheme for --preset runs (default AMPoM)",
    )
    crun.add_argument(
        "--scale",
        type=float,
        default=None,
        help="size scale factor for --preset runs (default 1/16)",
    )
    crun.add_argument(
        "--seed", type=int, default=None, help="seed for --preset runs (default 0)"
    )
    from .cluster.policy import POLICIES as _POLICIES

    crun.add_argument(
        "--policy",
        choices=tuple(_POLICIES),
        default=None,
        help="migration trigger policy for sustained-load scenarios "
        "(cluster_32/cluster_300 presets or a spec with a 'sustained' "
        "section; default from the spec)",
    )
    crun.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="EXPR",
        help="SLO for sustained-load scenarios, like 'utilization_imbalance<=8' "
        "or 'journey_wall_s_p99<=5' (repeatable): arms fleet telemetry and "
        "journeys, evaluates online and at the makespan, and exits 1 on any "
        "breach or journey mismatch",
    )
    crun.add_argument(
        "--json", action="store_true", help="emit per-migrant results as JSON"
    )
    crun_obs = crun.add_argument_group(
        "observability",
        "fleet telemetry & journey traces — pure observers, stdout "
        "unchanged (see docs/OBSERVABILITY.md, \"Fleet telemetry\")",
    )
    crun_obs.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write per-node fleet time series as JSONL to PATH",
    )
    crun_obs.add_argument(
        "--journeys",
        metavar="PATH",
        default=None,
        help="write per-migrant journey traces as JSONL to PATH",
    )
    crun_obs.add_argument(
        "--prom",
        metavar="PATH",
        default=None,
        help="write an OpenMetrics/Prometheus text snapshot to PATH",
    )
    cfig = cluster_sub.add_parser(
        "figure",
        help="cluster-utilization / migration-count series per policy",
        description="Run a sustained-load preset under each policy and "
        "print (or emit as JSON) the utilization and cumulative-migration "
        "time series — the fleet-scale counterpart of the paper figures.",
    )
    cfig.add_argument(
        "--preset",
        choices=("cluster_32", "cluster_300"),
        default="cluster_32",
        help="sustained-load preset to sweep",
    )
    cfig.add_argument(
        "--policies",
        nargs="+",
        choices=tuple(_POLICIES),
        default=["threshold", "balanced"],
        help="policies to compare",
    )
    cfig.add_argument("--scale", type=float, default=1 / 16)
    cfig.add_argument("--seed", type=int, default=0)
    cfig.add_argument(
        "--json", action="store_true", help="emit the series as JSON"
    )
    cfig.add_argument(
        "--heatmap",
        action="store_true",
        help="per-node x time heatmap of one fleet-telemetry series "
        "instead of the utilization curves (one matrix per policy)",
    )
    cfig.add_argument(
        "--series",
        default="load",
        choices=(
            "load",
            "in_flight_migrations",
            "migrations_out",
            "gossip_staleness_s",
            "suspected_peers",
        ),
        help="fleet series to plot with --heatmap (default: load)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded node-crash chaos sweep (see docs/FAULTS.md)",
        description="Run the preset x scheme matrix under seeded random "
        "whole-node crash schedules with the invariant checker forced on.  "
        "Kills and retry exhaustion are modelled outcomes; the command "
        "fails (exit 1) only on an InvariantViolation — some "
        "crash/abort/repair interleaving corrupted the modelled state.",
    )
    from .cluster.chaos import DEFAULT_PRESETS as _CHAOS_PRESETS
    from .cluster.chaos import DEFAULT_SCHEMES as _CHAOS_SCHEMES

    chaos.add_argument(
        "--presets",
        nargs="+",
        choices=tuple(_CLUSTER_PRESETS),
        default=list(_CHAOS_PRESETS),
        help="scenario presets to sweep",
    )
    chaos.add_argument(
        "--schemes",
        nargs="+",
        choices=("AMPoM", "openMosix", "FFA", "NoPrefetch"),
        default=list(_CHAOS_SCHEMES),
        help="migration schemes to sweep",
    )
    chaos.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0, 1, 2],
        help="one independent crash schedule per seed",
    )
    chaos.add_argument("--scale", type=float, default=1 / 32)
    chaos.add_argument(
        "--crash-rate", type=float, default=1.0, help="per-node crashes per second"
    )
    chaos.add_argument(
        "--mean-downtime", type=float, default=0.25, help="mean outage length (s)"
    )
    chaos.add_argument(
        "--horizon", type=float, default=3.0, help="crash schedule horizon (s)"
    )
    chaos.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the full report to FILE (always written on violations)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit the sweep results as JSON"
    )
    chaos.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="EXPR",
        help="reliability SLO evaluated per cell, e.g. 'kills<=4' or "
        "'mean_detection_latency_s<=2' (repeatable; any breach exits 1)",
    )

    check = sub.add_parser(
        "check",
        help="golden-trace regression harness (see docs/CHECKS.md)",
        description="Record or diff the deterministic golden event traces of "
        "the pinned scenario matrix.  Every scenario runs with the runtime "
        "invariant checker and the differential AMPoM oracle enabled.",
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)
    record = check_sub.add_parser(
        "record", help="run the scenario matrix and (re)write the golden traces"
    )
    record.add_argument(
        "--out",
        default=None,
        help="output directory (default: tests/golden under the repo root)",
    )
    record.add_argument(
        "--jobs",
        default="auto",
        help="worker processes for the scenario matrix (count or 'auto')",
    )
    diff = check_sub.add_parser(
        "diff", help="re-run the matrix and fail on any behavioral drift"
    )
    diff.add_argument(
        "--golden",
        default=None,
        help="directory holding the recorded traces (default: tests/golden)",
    )
    diff.add_argument(
        "--report",
        default=None,
        help="also write the divergence report to this file (CI artifact)",
    )
    diff.add_argument(
        "--jobs",
        default="auto",
        help="worker processes for the scenario matrix (count or 'auto')",
    )

    bench = sub.add_parser(
        "bench",
        help="simulator throughput smoke benchmark (JSON record + gate)",
        description=f"Time the {len(_BENCH_CASES)} simulator cases of "
        "repro.experiments.bench with plain wall clocks, write a JSON "
        "record, and optionally fail on regression against a committed "
        "baseline.  See docs/PERFORMANCE.md.",
    )
    bench.add_argument(
        "--repeats", type=int, default=5, help="timed runs per case (best-of)"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 2 repeats per case",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: benchmarks/results/BENCH_throughput.json)",
    )
    bench.add_argument(
        "--history",
        default=None,
        help="append-only JSONL perf log (default: "
        "benchmarks/results/history.jsonl; 'none' disables the append)",
    )
    bench.add_argument(
        "--against",
        default=None,
        help="baseline JSON to gate against (e.g. "
        "benchmarks/baselines/BENCH_throughput.json)",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=None,
        help="allowed fractional score slowdown vs the baseline (default 0.25)",
    )

    arena = sub.add_parser(
        "arena",
        help="prefetch-policy tournament across kernels, networks and faults",
        description="Run every requested prefetch policy against every "
        "workload kernel, network profile and fault plan under the invariant "
        "checker, and print a deterministic comparison table (stall time, "
        "prefetch accuracy, waste fraction, freeze p99).  Two runs of the "
        "same tournament are byte-identical.  See docs/POLICIES.md.",
    )
    arena.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy names (default: ampom,leap,"
        "linux-readahead,readahead-8,noprefetch)",
    )
    arena.add_argument(
        "--kernels",
        default=None,
        help="comma-separated HPCC kernels (default: all four)",
    )
    arena.add_argument(
        "--profiles",
        default=None,
        help="comma-separated network profiles: lan, broadband (default: both)",
    )
    arena.add_argument(
        "--fault-plans",
        default=None,
        help="comma-separated fault plans: none, lossy (default: both)",
    )
    arena.add_argument(
        "--scale", type=float, default=1 / 16, help="size scale factor"
    )
    arena.add_argument("--seed", type=int, default=0)
    arena.add_argument(
        "--jobs",
        default=None,
        help="worker processes for the grid (a count, or 'auto' for one per "
        "CPU; results are identical at any width)",
    )
    arena.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the full JSON report to PATH",
    )
    arena.add_argument(
        "--figure",
        default=None,
        metavar="PATH",
        help="also write the comparison figure as long-format CSV to PATH",
    )
    arena.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON on stdout instead of the table",
    )

    trace = sub.add_parser(
        "trace",
        help="traced golden runs gated for bit-identity",
        description="Run a golden scenario with the repro.obs span tracer "
        "armed and export the trace (load Perfetto JSON at ui.perfetto.dev).  "
        "Tracing is a pure observer: traced runs are float-identical to "
        "untraced ones, and `trace golden` gates exactly that.  To trace any "
        "other run, use `repro run --trace`.  See docs/OBSERVABILITY.md.",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tgolden = trace_sub.add_parser(
        "golden",
        help="run one golden scenario traced and gate bit-identity vs the recording",
    )
    from .check.golden import SCENARIOS as _GOLDEN_SCENARIOS

    tgolden.add_argument(
        "scenario",
        choices=tuple(s.name for s in _GOLDEN_SCENARIOS),
        help="golden scenario to run with tracing enabled",
    )
    tgolden.add_argument(
        "--golden",
        default=None,
        help="directory holding the recorded traces (default: tests/golden)",
    )
    tgolden.add_argument(
        "--out",
        default=None,
        help="also export the recorded span trace to this path",
    )
    tgolden.add_argument("--format", choices=TRACE_FORMATS, default="perfetto")

    return parser


# ----------------------------------------------------------------------
def _fault_spec_from_args(args: argparse.Namespace) -> FaultSpec:
    return FaultSpec(
        loss_rate=args.loss_rate,
        duplicate_rate=args.dup_rate,
        delay_rate=args.delay_rate,
        delay_s=args.delay_ms / 1000.0,
        link_down_windows=tuple(tuple(w) for w in (args.link_down or ())),
        deputy_crash_windows=tuple(tuple(w) for w in (args.deputy_crash or ())),
    )


def _retry_spec_from_args(args: argparse.Namespace, retry: RetrySpec) -> RetrySpec:
    """``retry`` with the command line's overrides applied (and validated)."""
    overrides = {}
    if args.retry_timeout_ms is not None:
        overrides["timeout_s"] = args.retry_timeout_ms / 1000.0
    if args.max_retries is not None:
        overrides["max_attempts"] = args.max_retries
    return dataclasses.replace(retry, **overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    cell = (args.kernel, args.mb, args.scheme)
    if args.case is not None and any(v is not None for v in cell):
        print("run: use either --case or --kernel/--mb/--scheme, not both")
        return 2
    if args.case is None and any(v is None for v in cell):
        print("run: need --case, or all of --kernel, --mb and --scheme")
        return 2
    given = [flag for flag in _CELL_FLAGS if getattr(args, flag) is not None]
    if args.case is not None and given:
        flags = ", ".join("--" + flag.replace("_", "-") for flag in given)
        print(f"run: a --case run fixes its own cell; drop {flags}")
        return 2
    for flag, default in _CELL_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    config = None
    if args.case is None:
        config = figures.scaled_config(args.scale, seed=args.seed)
        if args.broadband:
            config = config.with_network(NetworkSpec.broadband())
        # A bad policy, fault or retry flag is a usage error, even when no
        # fault is armed to use it.
        try:
            strategy = make_strategy(args.scheme, args.prefetch_policy)
            fault_spec = _fault_spec_from_args(args)
            retry = _retry_spec_from_args(args, config.retry)
        except ConfigurationError as exc:
            print(f"run: {exc}")
            return 2
        if fault_spec.active:
            config = config.with_(faults=fault_spec, retry=retry)
    try:
        obs = _make_obs(args)
    except ConfigurationError as exc:
        print(f"run: --inspect: {exc}")
        return 2
    if config is None:
        from .experiments import bench

        result = bench.CASES[args.case](obs=obs)
    else:
        workload = hpcc_workload(args.kernel, args.mb, scale=args.scale)
        spec = two_node_spec(
            workload, strategy, config=config, capacity_pages=args.capacity_pages
        )
        result = ScenarioRuntime(spec, obs=obs).execute()[0]
    if obs is not None and obs.tracer is not None:
        obs.tracer.verify_budget(result.budget)
        written = _write_trace(obs.tracer, args.trace_format, args.trace, result.budget)
        if not args.json:
            print(f"wrote {written}")
    if args.json:
        import json

        payload = result.to_dict()
        if obs is not None and obs.metrics is not None:
            payload["metrics"] = obs.metrics.summary()
        print(json.dumps(payload, indent=2))
        return 0
    c = result.counters
    if config is None:
        print(f"case            : {args.case}")
    else:
        print(f"kernel          : {args.kernel} ({args.mb:g} paper-MB x {args.scale:g})")
    print(f"scheme          : {result.strategy}")
    if result.prefetch_policy:
        print(f"prefetch policy : {result.prefetch_policy}")
    print(f"freeze time     : {result.freeze_time:.4f} s")
    print(f"run time        : {result.run_time:.4f} s")
    print(f"total time      : {result.total_time:.4f} s")
    print(f"fault requests  : {c.page_fault_requests}")
    print(f"pages prefetched: {c.pages_prefetched}")
    print(f"pages evicted   : {c.pages_evicted}")
    # Every --case runs on a clean network.
    if config is not None and config.faults.active:
        print(f"drops           : {c.messages_dropped}")
        print(f"timeouts        : {c.request_timeouts}")
        print(f"retransmits     : {c.retransmits}")
        print(f"wasted pages    : {c.prefetch_writeoffs}")
        print(f"crash detects   : {c.deputy_crash_detections}")
    for bucket, seconds in result.budget.as_dict().items():
        print(f"  {bucket:9s}: {seconds:.4f} s")
    if obs is not None and obs.metrics is not None:
        print()
        print(obs.metrics.render())
    return 0


# ----------------------------------------------------------------------
# observability plumbing (repro run --trace / repro trace golden)
# ----------------------------------------------------------------------
def _make_obs(args: argparse.Namespace):
    """Build the Observability bundle an argparse namespace asks for, or
    ``None`` when no instrument was requested (the no-observer fast path)."""
    trace = args.trace is not None
    metrics = bool(args.metrics)
    inspect_s = args.inspect
    if not trace and not metrics and inspect_s is None:
        return None
    from .obs import Observability

    return Observability.enabled(
        trace=trace,
        metrics=metrics,
        inspect_interval_s=inspect_s,
        echo=print if inspect_s is not None else None,
    )


def _write_trace(tracer, fmt: str, out: str, budget=None) -> str:
    """Export a recorded trace to ``out``; returns the path written."""
    from .obs import flame_summary, write_perfetto, write_spans_jsonl

    if fmt == "flame":
        from pathlib import Path

        Path(out).write_text(flame_summary(tracer, budget) + "\n")
    elif fmt == "perfetto":
        write_perfetto(tracer, out)
    else:
        write_spans_jsonl(tracer, out)
    return out


def _cmd_trace(args: argparse.Namespace) -> int:
    """`repro trace golden`: one golden scenario, traced and gated."""
    import json
    from pathlib import Path

    from .check.golden import SCENARIOS, _diff_lines, run_scenario
    from .obs import Observability

    scenario = next(s for s in SCENARIOS if s.name == args.scenario)
    golden_dir = Path(args.golden if args.golden is not None else _default_golden_dir())
    path = golden_dir / f"{scenario.name}.jsonl"
    if not path.exists():
        print(f"golden trace missing: {path} (run `repro check record`)")
        return 1
    obs = Observability.enabled(metrics=False)
    lines = run_scenario(scenario, obs=obs)
    divergence = _diff_lines(scenario.name, path.read_text().splitlines(), lines)
    if divergence is not None:
        print(f"tracing perturbed the run: {divergence}")
        return 1
    # Second gate: the span sums must replicate the recorded time budget.
    # A sustained-fleet golden ends with its fleet report, which holds no
    # budget, so only the first gate applies to it.
    budget = json.loads(lines[-1]).get("budget")
    if budget is not None:
        sums = obs.tracer.bucket_sums()
        for bucket, charged in budget.items():
            if sums.get(bucket, 0.0) != charged:
                print(
                    f"bucket {bucket!r}: budget charged {charged!r} but spans "
                    f"record {sums.get(bucket, 0.0)!r}"
                )
                return 1
    gated = "all buckets span-exact" if budget is not None else "no budget recorded"
    print(
        f"{scenario.name}: traced run bit-identical to the golden recording "
        f"({len(obs.tracer.spans)} spans, {gated})"
    )
    if args.out is not None:
        written = _write_trace(obs.tracer, args.format, args.out)
        print(f"wrote {written}")
    return 0


def _cmd_freeze(args: argparse.Namespace) -> int:
    t = figures.freeze_time(args.kernel, args.mb, args.scheme)
    print(f"{args.scheme} freeze time for {args.kernel} at {args.mb:g} MB: {t:.4f} s")
    return 0


def _print_series(title: str, by_label: dict) -> None:
    print(f"\n{title}")
    labels = list(by_label)
    xs = [x for x, _ in by_label[labels[0]]]
    rows = [[x] + [by_label[lbl][i][1] for lbl in labels] for i, x in enumerate(xs)]
    print(format_table(["MB"] + labels, rows))


def _cmd_figure(args: argparse.Namespace) -> int:
    n = args.number
    if n == 5:
        data = figures.figure5_full_scale(jobs=args.jobs)
        for kernel, schemes in data.items():
            _print_series(f"Figure 5 ({kernel}) — freeze time, s (full scale)", schemes)
        return 0
    if n == 9:
        data = figures.figure9(scale=args.scale)
        rows = []
        for label, nets in data.items():
            for net, schemes in nets.items():
                rows.append([label, net, schemes["AMPoM"], schemes["NoPrefetch"]])
        print("Figure 9 — % increase in execution time vs openMosix")
        print(format_table(["workload", "network", "AMPoM %", "NoPrefetch %"], rows))
        return 0
    if n == 10:
        data = figures.figure10(scale=args.scale)
        _print_series("Figure 10 — working-set DGEMM, total s", data)
        return 0

    matrix = figures.run_matrix(scale=args.scale, jobs=args.jobs)
    if n == 6:
        for kernel, schemes in figures.figure6(matrix).items():
            _print_series(f"Figure 6 ({kernel}) — total execution time, s", schemes)
    elif n == 7:
        for kernel, schemes in figures.figure7(matrix).items():
            _print_series(f"Figure 7 ({kernel}) — page fault requests", schemes)
    elif n == 8:
        rows = [
            [kernel, mb, v]
            for kernel, series in figures.figure8(matrix).items()
            for mb, v in series
        ]
        print("Figure 8 — prefetched pages per page fault")
        print(format_table(["kernel", "MB", "pages/fault"], rows))
    elif n == 11:
        rows = [
            [kernel, mb, v]
            for kernel, series in figures.figure11(matrix).items()
            for mb, v in series
        ]
        print("Figure 11 — AMPoM analysis overhead, %")
        print(format_table(["kernel", "MB", "overhead %"], rows))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    rows = tables.table1(scale=1.0)
    print(
        format_table(
            ["kernel", "problem size", "memory MB", "data pages", "MPT bytes"],
            [[r.kernel, r.problem_size, r.memory_mb, r.data_pages, r.mpt_bytes] for r in rows],
        )
    )
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    claims = figures.headline_claims(figures.run_matrix(scale=args.scale))
    rows = [
        [
            kernel,
            m["freeze_avoided_pct"],
            m["faults_prevented_pct"],
            m["ampom_overhead_pct"],
            m["noprefetch_penalty_pct"],
        ]
        for kernel, m in claims.items()
    ]
    print(
        format_table(
            ["kernel", "freeze avoided %", "faults prevented %", "AMPoM ovh %", "NoPrefetch +%"],
            rows,
        )
    )
    return 0


def _default_golden_dir() -> str:
    """tests/golden next to the installed package's repo root, if present."""
    import os

    from .check.golden import DEFAULT_GOLDEN_DIR

    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    candidate = os.path.join(here, str(DEFAULT_GOLDEN_DIR))
    if os.path.isdir(os.path.dirname(candidate)):
        return candidate
    return str(DEFAULT_GOLDEN_DIR)


def _cmd_check(args: argparse.Namespace) -> int:
    from .check.golden import SCENARIOS, diff_scenarios, record_scenarios

    if args.check_command == "record":
        out = args.out if args.out is not None else _default_golden_dir()
        written = record_scenarios(out, jobs=args.jobs)
        for path in written:
            print(f"recorded {path}")
        print(f"{len(written)} golden traces written to {out}")
        return 0

    golden = args.golden if args.golden is not None else _default_golden_dir()
    divergences = diff_scenarios(golden, jobs=args.jobs)
    report_lines = [str(d) for d in divergences]
    if args.report is not None:
        from pathlib import Path

        body = "\n".join(report_lines) + "\n" if report_lines else "no divergences\n"
        Path(args.report).write_text(body)
    if divergences:
        print(f"golden-trace drift in {len(divergences)}/{len(SCENARIOS)} scenarios:")
        for line in report_lines:
            print(f"  {line}")
        print("If the change is intentional, refresh with `repro check record`.")
        return 1
    print(f"golden traces match ({len(SCENARIOS)} scenarios, no drift)")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster.topology import build_preset, load_scenario

    if args.cluster_command == "figure":
        return _cmd_cluster_figure(args)

    if args.spec is not None:
        for opt in ("scheme", "scale", "seed"):
            if getattr(args, opt) is not None:
                print(f"cluster run: --{opt} applies to --preset runs only")
                return 2
    # A spec that cannot be built is a usage error; errors raised while
    # the run executes propagate.
    try:
        if args.spec is not None:
            spec = load_scenario(args.spec)
            label = args.spec
        else:
            spec = build_preset(
                args.preset,
                scheme=args.scheme if args.scheme is not None else "AMPoM",
                scale=args.scale if args.scale is not None else 1 / 16,
                seed=args.seed if args.seed is not None else 0,
            )
            label = f"preset {args.preset}"
    except (ConfigurationError, MigrationError) as exc:
        print(f"cluster run: {exc}")
        return 2
    if spec.sustained is not None:
        return _run_sustained_cli(spec, label, args)
    for opt in ("policy", "slo"):
        if getattr(args, opt) is not None:
            print(f"cluster run: --{opt} applies to sustained-load scenarios only")
            return 2
    runtime = ScenarioRuntime(spec, obs=_cluster_obs(args))
    results = runtime.execute()
    _write_cluster_obs(runtime.obs, args)
    faulty = runtime.injection_log is not None or runtime.node_plan is not None
    if args.json:
        import json

        payload = []
        for migrant, result in zip(spec.migrants, results):
            entry = result.to_dict()
            entry["name"] = migrant.name
            entry["path"] = list(migrant.path)
            if faulty:
                # Runtime-wide reliability telemetry rides on every entry
                # so the payload stays a flat list of migrant records.
                entry["fault_events"] = (
                    runtime.injection_log.summary()
                    if runtime.injection_log is not None
                    else {}
                )
                entry["reliability"] = runtime.node_stats.as_dict()
            payload.append(entry)
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{label}: {len(spec.graph.nodes)} nodes, "
        f"{len(spec.migrants)} migrant(s), makespan {runtime.sim.now:.4f} s"
    )
    rows = []
    for i, (migrant, result) in enumerate(zip(spec.migrants, results)):
        rows.append(
            [
                migrant.name or f"migrant-{i}",
                "->".join(migrant.path),
                f"{result.freeze_time:.4f}",
                f"{result.run_time:.4f}",
                f"{result.total_time:.4f}",
                result.counters.page_fault_requests,
                result.counters.pages_prefetched,
            ]
        )
    print(
        format_table(
            ["migrant", "path", "freeze s", "run s", "total s", "faults", "prefetched"],
            rows,
        )
    )
    checkers = [c for c in runtime.checkers if c is not None]
    if checkers:
        audits = sum(c.deep_audits for c in checkers)
        print(f"invariant checker: on ({audits} deep audits, no violations)")
    if faulty:
        if runtime.injection_log is not None and len(runtime.injection_log):
            counts = runtime.injection_log.summary()
            print(
                "fault events: "
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            )
        stats = runtime.node_stats
        print(
            f"reliability: crashes={stats.crashes} aborts={stats.migration_aborts} "
            f"retargets={stats.retargets} repairs={stats.chain_repairs} "
            f"kills={stats.kills} detections={stats.detections} "
            f"(mean latency {stats.mean_detection_latency_s:.4f} s) "
            f"false_suspicions={stats.false_suspicions}"
        )
    return 0


def _cluster_obs(args: argparse.Namespace):
    """Observability bundle for `cluster run` exports and SLOs (None when
    unarmed)."""
    slo = args.slo is not None
    fleet = slo or args.telemetry is not None or args.prom is not None
    journeys = slo or args.journeys is not None
    if not fleet and not journeys:
        return None
    from .obs import Observability

    return Observability.enabled(
        trace=False, metrics=False, fleet=fleet, journeys=journeys
    )


def _write_cluster_obs(obs, args: argparse.Namespace) -> None:
    """Write the requested telemetry/journey exports.  Quiet in --json
    mode so armed stdout stays byte-identical to unarmed (the CI `cmp`
    gate)."""
    if obs is None:
        return
    quiet = bool(args.json)
    if args.telemetry is not None and obs.fleet is not None:
        rows = obs.fleet.write_jsonl(args.telemetry)
        if not quiet:
            print(f"wrote {args.telemetry} ({rows} samples)")
    if args.journeys is not None and obs.journeys is not None:
        rows = obs.journeys.write_jsonl(args.journeys)
        if not quiet:
            print(f"wrote {args.journeys} ({rows} journeys)")
    if args.prom is not None and obs.fleet is not None:
        obs.fleet.write_prometheus(args.prom)
        if not quiet:
            print(f"wrote {args.prom}")


def _run_sustained_cli(spec, label: str, args: argparse.Namespace) -> int:
    """`cluster run` on a sustained-load scenario: arrival stream in,
    decentralized policy decisions out, executed as real migrations.
    With ``--slo`` the run is armed, SLO-gated and reconciled."""
    import dataclasses

    from .cluster.sustained import SustainedLoadDriver
    from .obs.slo import SLOMonitor, journey_summary_metrics

    sustained = spec.sustained
    if args.policy is not None:
        sustained = dataclasses.replace(sustained, policy=args.policy)
    monitor = None
    if args.slo is not None:
        try:
            monitor = SLOMonitor.parse(args.slo)
        except ConfigurationError as exc:
            print(f"cluster run: --slo: {exc}")
            return 2
    try:
        driver = SustainedLoadDriver(spec.graph, sustained, config=spec.config)
    except (ConfigurationError, MigrationError) as exc:
        print(f"cluster run: {exc}")
        return 2
    driver.slo_monitor = monitor
    res = driver.execute(obs=_cluster_obs(args))
    report = res.report
    runtime = driver.runtime
    mismatches: list[str] = []
    if monitor is not None:
        journeys = driver.obs.journeys
        stats = runtime.node_stats if runtime is not None else None
        summary = journey_summary_metrics(journeys, stats=stats)
        # The online passes saw the live series; this final pass adds the
        # end-of-run journey/reliability metrics at t = makespan.
        monitor.evaluate(report.makespan, summary)
        mismatches = journeys.reconcile(report=report, stats=stats)
    _write_cluster_obs(driver.obs, args)
    failed = monitor is not None and (bool(mismatches) or not monitor.ok)
    if args.json:
        import json

        payload = res.to_dict()
        if monitor is not None:
            payload["summary_metrics"] = summary
            payload["reconcile_mismatches"] = mismatches
            payload["slo"] = monitor.report()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0
    print(
        f"{label} [sustained]: {report.nodes} worker nodes, "
        f"policy {report.policy}, scheme {report.scheme}, seed {report.seed}"
    )
    print(
        f"arrivals {report.arrivals}, completed {report.completed}, "
        f"makespan {report.makespan:.4f} s"
    )
    print(
        f"decisions {report.migrations} "
        f"({len(res.drive.migrants)} executed as real migrations), "
        f"total frozen {report.total_frozen_time:.4f} s"
    )
    if report.utilization:
        peak = max(report.utilization, key=lambda s: (s.busy_nodes, s.time))
        print(
            f"utilization: peak {peak.busy_nodes}/{report.nodes} busy nodes "
            f"at t={peak.time:.1f} s, "
            f"final cumulative migrations {report.utilization[-1].migrations}"
        )
    if runtime is not None:
        checkers = [c for c in runtime.checkers if c is not None]
        if checkers:
            audits = sum(c.deep_audits for c in checkers)
            print(f"invariant checker: on ({audits} deep audits, no violations)")
    if monitor is not None:
        print("journeys: " + ", ".join(f"{k}={v:g}" for k, v in sorted(summary.items())))
        for line in mismatches:
            print(f"RECONCILE MISMATCH: {line}")
        if not mismatches:
            print(
                f"reconcile: {len(journeys.journeys)} journeys match "
                "the independent counters exactly"
            )
        print(monitor.describe())
    return 1 if failed else 0


def _cmd_cluster_figure(args: argparse.Namespace) -> int:
    from .experiments.figures import cluster_sustained_figure

    if args.heatmap:
        return _cmd_cluster_heatmap(args)
    data = cluster_sustained_figure(
        preset=args.preset,
        policies=tuple(args.policies),
        scale=args.scale,
        seed=args.seed,
    )
    if args.json:
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    for policy, series in data.items():
        print(
            f"\n{args.preset} / {policy}: makespan {series['makespan']:.4f} s, "
            f"{series['migrations_total']} migrations"
        )
        rows = [
            [f"{t:.1f}", f"{busy_frac:.3f}", migs]
            for (t, busy_frac), (_, migs) in zip(
                series["utilization"], series["migrations"]
            )
        ]
        print(format_table(["t (s)", "busy fraction", "cumulative migrations"], rows))
    return 0


def _cmd_cluster_heatmap(args: argparse.Namespace) -> int:
    """`cluster figure --heatmap`: one per-node x time matrix per policy."""
    from .experiments.figures import cluster_node_heatmap

    data = {
        policy: cluster_node_heatmap(
            preset=args.preset,
            policy=policy,
            scale=args.scale,
            seed=args.seed,
            series=args.series,
        )
        for policy in args.policies
    }
    if args.json:
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    for policy, matrix in data.items():
        times = matrix["times"]
        print(
            f"\n{args.preset} / {policy} — {matrix['series']} "
            f"({len(matrix['nodes'])} nodes x {len(times)} ticks)"
        )
        rows = [
            [node] + [f"{v:g}" for v in row]
            for node, row in zip(matrix["nodes"], matrix["values"])
        ]
        print(format_table(["node"] + [f"{t:.1f}s" for t in times], rows))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .cluster.chaos import run_chaos

    report = run_chaos(
        presets=tuple(args.presets),
        schemes=tuple(args.schemes),
        seeds=tuple(args.seeds),
        scale=args.scale,
        crash_rate_hz=args.crash_rate,
        mean_downtime_s=args.mean_downtime,
        horizon_s=args.horizon,
        slos=tuple(args.slo or ()),
    )
    text = report.to_text()
    if args.json:
        import dataclasses
        import json

        payload = {
            "runs": [dataclasses.asdict(run) for run in report.runs],
            "violations": [
                {
                    "preset": run.preset,
                    "scheme": run.scheme,
                    "seed": run.seed,
                    "error": str(violation),
                }
                for run, violation in report.violations
            ],
            "slo_breaches": list(report.slo_breaches),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    out = args.report
    if out is None and not report.ok:
        out = "chaos-violations.txt"
    if out is not None:
        from pathlib import Path

        Path(out).write_text(text + "\n")
        print(f"wrote {out}")
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as _json

    from .experiments import bench

    repeats = 2 if args.quick else args.repeats
    record = bench.run_bench(repeats=repeats)
    out = args.out if args.out is not None else str(bench.DEFAULT_OUT)
    path = bench.write_record(record, out)
    print(f"calibration: {record['calibration_s'] * 1e3:.2f} ms")
    for name, case in record["cases"].items():
        print(
            f"{name:16s} min {case['min_s'] * 1e3:8.2f} ms   "
            f"score {case['score']:8.1f}"
        )
    print(f"wrote {path}")
    if args.history != "none":
        history = bench.append_history(
            record,
            args.history if args.history is not None else bench.DEFAULT_HISTORY,
        )
        print(f"appended {history}")
    if args.against is None:
        return 0
    from pathlib import Path

    baseline = _json.loads(Path(args.against).read_text())
    limit = (
        args.max_regression
        if args.max_regression is not None
        else bench.DEFAULT_MAX_REGRESSION
    )
    breaches = bench.compare(record, baseline, max_regression=limit)
    if breaches:
        print(f"benchmark regression vs {args.against}:")
        for line in breaches:
            print(f"  {line}")
        return 1
    print(f"no regression vs {args.against} (limit {limit:.0%})")
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    import json as _json

    from .experiments import arena

    def split(raw: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
        if raw is None:
            return default
        return tuple(p.strip() for p in raw.split(",") if p.strip())

    try:
        report = arena.run_arena(
            policies=split(args.policies, arena.DEFAULT_POLICIES),
            kernels=split(args.kernels, tuple(arena.KERNEL_SIZES)),
            profiles=split(args.profiles, ("lan", "broadband")),
            fault_plans=split(args.fault_plans, ("none", "lossy")),
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
        )
    except ConfigurationError as exc:
        print(f"arena: {exc}")
        return 2
    import sys

    # Notices go to stderr so stdout carries nothing but the table (or
    # JSON) — the CI determinism gate `cmp`s stdout across two runs whose
    # only difference is the --out filename.
    if args.out is not None:
        written = arena.write_arena_json(report, args.out)
        print(f"wrote {written}", file=sys.stderr)
    if args.figure is not None:
        written = arena.write_arena_csv(report, args.figure)
        print(f"wrote {written}", file=sys.stderr)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(arena.arena_table(report))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .experiments.export import export_figures_csv

    out = export_figures_csv(args.path, scale=args.scale)
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "freeze": _cmd_freeze,
    "figure": _cmd_figure,
    "table1": _cmd_table1,
    "headline": _cmd_headline,
    "export": _cmd_export,
    "check": _cmd_check,
    "chaos": _cmd_chaos,
    "cluster": _cmd_cluster,
    "bench": _cmd_bench,
    "arena": _cmd_arena,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
