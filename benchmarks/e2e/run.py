"""End-to-end benchmark of the repro simulator.

    python3 benchmarks/e2e/run.py --workload fleet300 --seed 0 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --seed 0                  # every workload
    python3 benchmarks/e2e/run.py --seed 0 --trace 1        # per-layer split
    python3 benchmarks/e2e/run.py --seed 0 --out a.json     # on the parent commit
    python3 benchmarks/e2e/run.py --seed 0 --against a.json # on the change

Each pass runs in a fresh child process, one child at a time, with the
``REPRO_*`` switches cleared so the default program is measured.  The
number of passes is planned from ``--seconds`` and each workload's nominal
pass length, so two commits measured with the same arguments run the same
inputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1`` the
metrics are the per-layer ones of ``BENCHMARK.json``, otherwise the
end-to-end ones.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import compare_records, format_rows
from layers import LAYERS
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
#: Whole-run limit per workload; a run must end well inside 180 s.
DEADLINE_S = 170.0
#: A traced pass costs about 2.5 untraced ones, so a (bare, traced) pair
#: costs about this many untraced passes.
PAIR_COST = 3.5
CLEARED_ENV = ("REPRO_BATCH", "REPRO_CHECKS", "REPRO_SHARD", "REPRO_JOBS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def spawn_pass(workload: str, seed: int, pass_index: int, traced: bool, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    job = json.dumps({"workload": workload, "seed": seed, "pass": pass_index, "traced": traced})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before pass {pass_index}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), job],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: pass {pass_index} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: pass {pass_index} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: pass {pass_index} printed no record:\n{proc.stderr[-2000:]}")


def quartiles(samples: list[float]) -> dict:
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else [median] * 3
    return {"value": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def _accounting(records: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed_ops = [f for r in records for f in r["failed"]]
    return {
        "attempted": attempted,
        "failed": len(failed_ops),
        "fail_frac": len(failed_ops) / attempted,
        "failed_ops": failed_ops,
        "problems": [p for r in records for p in r["problems"]],
    }


def deadlines(planned: int, seconds: float):
    """Yield the deadline of each planned pass (or pair).  A host far
    slower than the reference stops once the run has taken twice
    ``seconds`` rather than overrun its time budget."""
    start = time.monotonic()
    for i in range(planned):
        if i and time.monotonic() - start > 2 * seconds:
            return
        yield start + DEADLINE_S


def measure(workload: str, seed: int, seconds: float, units: dict) -> dict:
    """Untraced passes: the end-to-end metrics, as median and quartiles."""
    planned = max(1, round(seconds / WORKLOADS[workload].pass_s))
    records = [
        spawn_pass(workload, seed, p, traced=False, deadline=deadline)
        for p, deadline in enumerate(deadlines(planned, seconds))
    ]
    metrics = {
        name: {"unit": unit, **quartiles([r[name] for r in records])}
        for name, unit in units.items()
    }
    return {
        "passes": len(records),
        "metrics": metrics,
        **_accounting(records),
        "sim": records[0]["sim"],
    }


def layer_metrics(bare: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of one (untraced, traced) pair of the same pass."""
    layers = traced["layers"]
    total = layers["total_s"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers["self_s"][layer]
        out[f"{layer}.self_frac"] = layers["self_s"][layer] / total
        out[f"{layer}.calls"] = layers["calls"][layer]
    out["unattributed.self_frac"] = layers["unattributed_s"] / total
    # Compare the profiled interval only: the import is never profiled.
    out["trace.overhead"] = (traced["wall_s"] - traced["import_s"]) / (
        bare["wall_s"] - bare["import_s"]
    )
    out.update(layers["events"])
    out["sim.events_per_s"] = layers["events"]["sim.events"] / bare["wall_s"]
    out.update(traced["counts"])
    return out


def measure_traced(workload: str, seed: int, seconds: float, units: dict) -> dict:
    """(untraced, traced) pairs of pass 0: the per-layer metrics."""
    planned = max(1, round(seconds / (PAIR_COST * WORKLOADS[workload].pass_s)))
    pairs = [
        (
            spawn_pass(workload, seed, 0, traced=False, deadline=deadline),
            spawn_pass(workload, seed, 0, traced=True, deadline=deadline),
        )
        for deadline in deadlines(planned, seconds)
    ]
    records = [r for pair in pairs for r in pair]
    acct = _accounting(records)
    reference = records[0]
    for rec in records:
        if rec["sim"] != reference["sim"] or rec["counts"] != reference["counts"]:
            acct["problems"].append(
                f"pass 0 {'traced' if rec['traced'] else 'untraced'} simulated results "
                f"differ: digest {rec['sim']['sim_digest'][:12]} vs "
                f"{reference['sim']['sim_digest'][:12]}"
            )
    per_pair = [layer_metrics(bare, traced) for bare, traced in pairs]
    metrics = {
        name: {"unit": unit, "value": statistics.median(p[name] for p in per_pair)}
        for name, unit in units.items()
    }
    return {
        "passes": len(records),
        "metrics": metrics,
        **acct,
        "sim": reference["sim"],
        "spans": [traced["spans"] for _bare, traced in pairs],
    }


def write_trace(path: Path, traced_runs: dict[str, dict]) -> None:
    """Per-op spans of every traced pass, as Chrome trace events."""
    events = []
    for pid, (workload, run) in enumerate(traced_runs.items(), start=1):
        for tid, spans in enumerate(run["spans"], start=1):
            for span in spans:
                events.append(
                    {
                        "name": span["name"],
                        "ph": "X",
                        "ts": span["start_s"] * 1e6,
                        "dur": (span["end_s"] - span["start_s"]) * 1e6,
                        "pid": pid,
                        "tid": tid,
                        "args": {"trace": f"{workload}/pair{tid}", "parent": span["parent"]},
                    }
                )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def print_summary(workload: str, run: dict) -> None:
    print(f"== {workload}: {run['passes']} passes, {run['attempted']} ops, {run['failed']} failed")
    for name, m in run["metrics"].items():
        if "q1" in m:
            print(
                f"  {name:<28} {m['value']:.6g} {m['unit']}  "
                f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]"
            )
        else:
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    for name, value in run["sim"].items():
        print(f"  {name:<28} {value if isinstance(value, str) else f'{value:.10g}'}  (pass 0)")
    for f in run["failed_ops"]:
        print(f"  FAILED {f['id']}: {f['error']} at {f['where']}")
    for p in run["problems"]:
        print(f"  WRONG {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full record here")
    parser.add_argument("--against", type=Path, help="compare with a record from --out")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, dict] = {}
    record = {"seed": args.seed, "seconds": seconds, "trace": args.trace, "workloads": runs}
    try:
        for workload in workloads:
            run = (measure_traced if args.trace else measure)(workload, args.seed, seconds, units)
            runs[workload] = run
            print_summary(workload, run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        write_trace(HERE / "results" / "trace.json", runs)
        for run in runs.values():
            del run["spans"]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    worse = False
    if args.against:
        rows = compare_records(json.loads(args.against.read_text()), record, bench["end_to_end"])
        print(format_rows(rows))
        worse = any(r["verdict"] == "worse" for r in rows)

    result = {
        "correct": not any(run["problems"] for run in runs.values()),
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        # One workload reports bare names; several prefix each name.
        "metrics": {
            (name if args.workload else f"{workload}.{name}"): {
                "value": m["value"],
                "unit": m["unit"],
            }
            for workload, run in runs.items()
            for name, m in run["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
