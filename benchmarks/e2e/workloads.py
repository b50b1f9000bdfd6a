"""Workloads of the end-to-end benchmark and the pass that runs them.

A *pass* is one fresh child process running a fixed list of operations
("ops") closed-loop: each op starts when the previous one ends.  The
parent (``run.py``) only needs :data:`WORKLOADS` for names and pass
lengths; everything that touches the ``repro`` package is imported inside
the functions below, in the child, so the import itself is timed.

Inputs come from ``(seed, pass_index)`` alone.  Every pass of a run draws
fresh simulation seeds (``seed * 1000 + pass_index * seeds_per_pass + k``),
so a run's median averages over many inputs, not one.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import pstats
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from layers import aggregate

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Size scale of the HPCC programs: the figures' default (1/8 of table 1).
SCALE = 1.0 / 8.0

#: Runaway guard for the lossy cells.  The largest healthy cell fires
#: under 19k events; a hung migrant advances the clock one infod probe
#: (1 s) per event and would otherwise run for minutes.
LOSSY_MAX_EVENTS = 250_000


@dataclass(frozen=True)
class Workload:
    """A workload's pass shape; ``BENCHMARK.json`` says why each exists."""

    name: str
    #: Host seconds of one pass on the reference host (2 vCPU, Python
    #: 3.11).  run.py plans ``seconds / pass_s`` passes from it, so both
    #: sides of a comparison run the same inputs.
    pass_s: float
    #: Simulation seeds one pass consumes.
    seeds_per_pass: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_matrix", pass_s=9.0, seeds_per_pass=1),
        Workload("fleet300", pass_s=2.5, seeds_per_pass=1),
        Workload("fleet32_observed", pass_s=2.3, seeds_per_pass=6),
        Workload("lossy_multihop", pass_s=2.2, seeds_per_pass=2),
    )
}


def sim_seeds(workload: str, seed: int, pass_index: int) -> list[int]:
    n = WORKLOADS[workload].seeds_per_pass
    base = seed * 1000 + pass_index * n
    return [base + k for k in range(n)]


@dataclass
class Op:
    """One closed-loop operation: ``build`` makes the inputs (timed as
    set-up), ``run`` hands them to the program and returns its outcome."""

    id: str
    build: Callable[[], Any]
    run: Callable[[Any], Any]


@dataclass
class Outcome:
    """What an op produced: the per-migration results plus, for fleet
    runs, the sustained report and the observability bundle."""

    results: list
    report: Any = None
    obs: Any = None
    cell: tuple | None = None


# ----------------------------------------------------------------------
# op constructors (child only: these import repro)
# ----------------------------------------------------------------------
def _paper_matrix_ops(seeds: list[int]) -> list[Op]:
    from repro.experiments.figures import KERNELS, SCHEMES, run_one, scaled_config
    from repro.workloads.hpcc import kernel_sizes_mb

    (sim_seed,) = seeds
    ops = []
    for kernel in KERNELS:
        for mb in kernel_sizes_mb(kernel):
            for scheme in SCHEMES:

                def build(kernel=kernel, mb=mb, scheme=scheme):
                    # DGEMM and STREAM traces are seed-free; the random
                    # kernels take the seed for their access streams.
                    kwargs = {"seed": sim_seed} if kernel in ("RandomAccess", "FFT") else {}
                    return (kernel, mb, scheme, scaled_config(SCALE, seed=sim_seed), kwargs)

                def run(spec):
                    kernel, mb, scheme, config, kwargs = spec
                    result = run_one(kernel, mb, scheme, scale=SCALE, config=config, **kwargs)
                    return Outcome(results=[result], cell=(kernel, mb, scheme))

                ops.append(Op(f"{kernel}-{mb}-{scheme}@{sim_seed}", build, run))
    return ops


def _fleet_ops(preset: str, seeds: list[int], observed: bool) -> list[Op]:
    from repro.cluster.sustained import SustainedLoadDriver
    from repro.cluster.topology import build_preset
    from repro.obs import Observability

    ops = []
    for sim_seed in seeds:

        def build(sim_seed=sim_seed):
            spec = build_preset(preset, seed=sim_seed)
            obs = (
                Observability.enabled(trace=True, metrics=True, fleet=True, journeys=True)
                if observed
                else None
            )
            return spec, obs

        def run(built):
            spec, obs = built
            driver = SustainedLoadDriver(spec.graph, spec.sustained, config=spec.config)
            res = driver.execute(obs=obs, jobs=1)
            return Outcome(results=list(res.drive.results), report=res.report, obs=obs)

        ops.append(Op(f"{preset}@{sim_seed}", build, run))
    return ops


def _lossy_multihop_ops(seeds: list[int]) -> list[Op]:
    from repro.cluster.session import ScenarioRuntime
    from repro.cluster.topology import (
        HOME,
        THREE_HOP_DELAY_S,
        LinkSpec,
        MigrantSpec,
        NodeGraph,
        ScenarioSpec,
        make_strategy,
    )
    from repro.config import FaultSpec
    from repro.experiments.figures import KERNELS, scaled_config
    from repro.units import ms
    from repro.workloads.hpcc import hpcc_workload, kernel_sizes_mb

    faults = FaultSpec(loss_rate=0.03, duplicate_rate=0.02, delay_rate=0.05, delay_s=ms(2.0))
    ops = []
    for sim_seed in seeds:
        for kernel in KERNELS:
            for scheme in ("AMPoM", "NoPrefetch"):

                def build(sim_seed=sim_seed, kernel=kernel, scheme=scheme):
                    migrant = MigrantSpec(
                        workload=hpcc_workload(kernel, kernel_sizes_mb(kernel)[0], scale=SCALE),
                        strategy=make_strategy(scheme),
                        path=(HOME, "n1", "n2"),
                        hop_delays=(THREE_HOP_DELAY_S,),
                    )
                    # The n1<->n2 transit link stays clean: loss on it hangs
                    # the retransmit protocol on ~10% of seeds (README,
                    # "Known failure"), and the benchmark's workloads must
                    # not fail.  Both home links carry the faults.
                    graph = NodeGraph((HOME, "n1", "n2"), (LinkSpec("n1", "n2", lossy=False),))
                    return ScenarioSpec(
                        graph=graph,
                        migrants=(migrant,),
                        config=scaled_config(SCALE, seed=sim_seed).with_(faults=faults),
                        max_events=LOSSY_MAX_EVENTS,
                    )

                def run(spec):
                    return Outcome(results=ScenarioRuntime(spec).execute())

                ops.append(Op(f"{kernel}-{scheme}@{sim_seed}", build, run))
    return ops


def build_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    seeds = sim_seeds(workload, seed, pass_index)
    if workload == "paper_matrix":
        return _paper_matrix_ops(seeds)
    if workload == "fleet300":
        return _fleet_ops("cluster_300", seeds, observed=False)
    if workload == "fleet32_observed":
        return _fleet_ops("cluster_32", seeds, observed=True)
    if workload == "lossy_multihop":
        return _lossy_multihop_ops(seeds)
    raise KeyError(f"unknown workload {workload!r}; pick one of {sorted(WORKLOADS)}")


# ----------------------------------------------------------------------
# output checks and simulated metrics
# ----------------------------------------------------------------------
def check_outcome(outcome: Outcome) -> list[str]:
    """Problems with one op's outputs (empty when they are correct)."""
    problems = []
    for r in outcome.results:
        if not (math.isfinite(r.freeze_time) and math.isfinite(r.run_time)):
            problems.append(
                f"non-finite times: freeze={r.freeze_time!r} run={r.run_time!r}"
            )
    if outcome.report is not None and outcome.report.completed != outcome.report.arrivals:
        problems.append(
            f"completed {outcome.report.completed} != arrivals {outcome.report.arrivals}"
        )
    if outcome.obs is not None and outcome.obs.journeys is not None:
        problems.extend(
            f"journey mismatch: {m}" for m in outcome.obs.journeys.reconcile(report=outcome.report)
        )
    return problems


def sim_digest(results: list) -> str:
    """sha256 of the sorted ``ExecutionResult.to_dict()`` JSON documents."""
    docs = sorted(json.dumps(r.to_dict(), sort_keys=True) for r in results)
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()


def paper_err_pp(outcomes: list[Outcome]) -> float | None:
    """Mean absolute gap, in percentage points, between the headline
    claims of this sweep and the paper's faults-prevented and NoPrefetch
    penalty numbers (section 5.3/5.4); ``None`` unless every kernel's
    largest cells ran."""
    from repro.experiments.calibration import (
        PAPER_FAULTS_PREVENTED_PCT,
        PAPER_NOPREFETCH_PENALTY_PCT,
    )
    from repro.experiments.figures import KERNELS, FigureMatrix, headline_claims

    matrix = FigureMatrix(scale=SCALE, results={o.cell: o.results[0] for o in outcomes})
    claims = headline_claims(matrix)
    if set(claims) != set(KERNELS):
        return None
    gaps = [
        abs(claims[k]["faults_prevented_pct"] - PAPER_FAULTS_PREVENTED_PCT[k]) for k in claims
    ] + [
        abs(claims[k]["noprefetch_penalty_pct"] - PAPER_NOPREFETCH_PENALTY_PCT[k])
        for k in claims
    ]
    return sum(gaps) / len(gaps)


def simulated_metrics(workload: str, outcomes: list[Outcome]) -> dict:
    """Exact metrics on the simulated clock, plus the layer counts read
    from the run results.  Identical inputs give identical values."""
    results = [r for o in outcomes for r in o.results]
    counters = [r.counters for r in results]
    prefetched = sum(c.pages_prefetched for c in counters)
    useful = sum(max(r.counters.pages_prefetched - r.wasted_pages, 0) for r in results)
    sim = {
        "sim_exec_s": sum(r.total_time for r in results),
        "sim_freeze_s": sum(r.freeze_time for r in results),
        "sim_remote_faults": sum(c.demand_requests for c in counters),
        "sim_prefetch_accuracy": useful / prefetched if prefetched else 0.0,
        "sim_digest": sim_digest(results),
    }
    if workload == "paper_matrix":
        err = paper_err_pp(outcomes)
        if err is not None:
            sim["paper_err_pp"] = err
    counts = {
        "net.pages_moved": sum(
            c.pages_migrated + c.pages_demand_fetched + c.pages_prefetched for c in counters
        ),
        "core.pages_prefetched": prefetched,
        "core.prefetch_useful_frac": sim["sim_prefetch_accuracy"],
        "mem.major_faults": sum(c.major_faults for c in counters),
        "node.demand_requests": sim["sim_remote_faults"],
        "faults.retransmits": sum(c.retransmits for c in counters),
        "faults.request_timeouts": sum(c.request_timeouts for c in counters),
        "faults.messages_dropped": sum(c.messages_dropped for c in counters),
        "cluster.decisions": sum(o.report.migrations for o in outcomes if o.report is not None),
        "migration.migrations": sum(int(r.extra.get("hops", 1)) for r in results),
    }
    return {"sim": sim, "counts": counts}


# ----------------------------------------------------------------------
# set-up timing
# ----------------------------------------------------------------------
class SetupTimer:
    """Times the outermost ``SustainedLoadDriver``, ``Cluster`` and
    ``ScenarioRuntime`` constructors by wrapping them for the duration of
    a ``with`` block (nested constructions count once)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._depth = 0
        self._saved: list[tuple[type, Callable]] = []

    def __enter__(self) -> "SetupTimer":
        from repro.cluster.cluster import Cluster
        from repro.cluster.session import ScenarioRuntime
        from repro.cluster.sustained import SustainedLoadDriver

        for cls in (SustainedLoadDriver, Cluster, ScenarioRuntime):
            self._saved.append((cls, cls.__init__))
            cls.__init__ = self._wrap(cls.__init__)
        return self

    def __exit__(self, *exc) -> None:
        for cls, init in reversed(self._saved):
            cls.__init__ = init
        self._saved.clear()

    def _wrap(self, init: Callable) -> Callable:
        def timed_init(obj, *args, **kwargs):
            if self._depth:
                return init(obj, *args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return init(obj, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self._depth -= 1

        return timed_init


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def import_program() -> None:
    """Import every ``repro`` module a workload touches (same set for all
    workloads, so the import cost is comparable between them)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.cluster.session  # noqa: F401
    import repro.cluster.sustained  # noqa: F401
    import repro.cluster.topology  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    import repro.obs  # noqa: F401


def run_pass(
    workload: str,
    seed: int,
    pass_index: int,
    traced: bool = False,
    ops: list[Op] | None = None,
) -> dict:
    """Run one pass and return its JSON-ready record.

    ``wall_s`` runs from before the program is imported to the end of the
    last op.  ``ops`` overrides the workload's op list (the self-test runs
    a small subset).
    """
    t0 = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - t0
    spans = [{"name": "import", "parent": "pass", "start_s": 0.0, "end_s": import_s}]

    t_build = time.perf_counter()
    if ops is None:
        ops = build_ops(workload, seed, pass_index)
    spec_s = time.perf_counter() - t_build
    profile = cProfile.Profile() if traced else None
    done: list[tuple[Op, Outcome]] = []
    failed: list[dict] = []
    with SetupTimer() as timer:
        if profile is not None:
            profile.enable()
        for op in ops:
            start = time.perf_counter()
            try:
                built = op.build()
                spec_s += time.perf_counter() - start
                done.append((op, op.run(built)))
            except Exception as exc:  # an op failure is counted, not fatal
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                failed.append(
                    {
                        "id": op.id,
                        "error": f"{type(exc).__name__}: {exc}",
                        "where": f"{Path(frame.filename).name}:{frame.lineno}",
                    }
                )
            spans.append(
                {
                    "name": op.id,
                    "parent": "pass",
                    "start_s": start - t0,
                    "end_s": time.perf_counter() - t0,
                }
            )
        if profile is not None:
            profile.disable()
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans.insert(0, {"name": "pass", "parent": None, "start_s": 0.0, "end_s": wall_s})

    record = {
        "workload": workload,
        "seed": seed,
        "pass": pass_index,
        "traced": traced,
        "wall_s": wall_s,
        "import_s": import_s,
        "setup_s": import_s + spec_s + timer.seconds,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": [f"{op.id}: {p}" for op, outcome in done for p in check_outcome(outcome)],
        **simulated_metrics(workload, [outcome for _op, outcome in done]),
    }
    if profile is not None:
        record["layers"] = aggregate(pstats.Stats(profile).stats)
        record["spans"] = spans
    return record
