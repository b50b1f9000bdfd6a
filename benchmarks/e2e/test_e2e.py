"""Self-test of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def names(kind: str) -> set[str]:
    return {m["name"] for m in BENCH[kind]}


@pytest.fixture(scope="module")
def pair():
    """An untraced and a traced pass over a few ops of three workloads:
    the two-node, lossy three-hop and armed fleet paths."""
    workloads.import_program()

    def ops():
        return (
            workloads.build_ops("paper_matrix", 0, 0)[:3]
            + workloads.build_ops("lossy_multihop", 0, 0)[:2]
            + workloads.build_ops("fleet32_observed", 0, 0)[:1]
        )

    bare = workloads.run_pass("paper_matrix", 0, 0, ops=ops())
    traced = workloads.run_pass("paper_matrix", 0, 0, traced=True, ops=ops())
    return bare, traced


def test_result_line_matches_benchmark_json():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lossy_multihop", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] > 0 and line["attempted"] % 16 == 0
    assert set(line["metrics"]) == names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["unit"] == units[n] and m["value"] > 0 for n, m in line["metrics"].items())


def test_per_layer_names_match_benchmark_json(pair):
    bare, traced = pair
    assert set(run.layer_metrics(bare, traced)) == names("per_layer")
    assert names("end_to_end") <= set(bare)


def test_traced_sim_metrics_equal_untraced(pair):
    bare, traced = pair
    assert not bare["failed"] and not bare["problems"]
    assert bare["sim"] == traced["sim"]
    assert bare["counts"] == traced["counts"]


def test_layer_fractions_cover_the_profile(pair):
    _bare, traced = pair
    agg = traced["layers"]
    attributed = sum(agg["self_s"].values()) + agg["unattributed_s"]
    assert attributed == pytest.approx(agg["total_s"], rel=1e-9)
    assert agg["unattributed_s"] / agg["total_s"] < 0.05
    events = agg["events"]
    for metric in ("sim.events", "net.connects", "core.analyses", "node.serve_calls",
                   "cluster.loads_calls", "obs.fleet_pushes", "obs.journey_records"):
        assert events[metric] > 0, metric


@pytest.mark.parametrize(
    "path, layer",
    [
        ("/co/src/repro/core/prefetcher.py", "core"),
        ("/co/src/repro/cluster/scheduler.py", "cluster"),
        ("/co/src/repro/migration/executor.py", "migration"),
        ("/co/src/repro/config.py", None),
        ("/co/src/repro/experiments/figures.py", None),
        ("/usr/lib/python3.11/heapq.py", None),
        ("~", None),
        ("/co/benchmarks/e2e/workloads.py", None),
    ],
)
def test_layer_of(path, layer):
    assert layers.layer_of(path) == layer


def test_unowned_time_is_charged_to_the_calling_layer():
    bench = ("/co/benchmarks/e2e/workloads.py", 1, "run_pass")
    link = ("/co/src/repro/net/link.py", 10, "transfer")
    kernel = ("/co/src/repro/sim/kernel.py", 20, "run")
    config = ("/co/src/repro/config.py", 30, "with_")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        bench: (1, 1, 0.1, 2.0, {}),
        link: (1, 1, 0.2, 0.8, {bench: (1, 1, 0.2, 0.8)}),
        kernel: (1, 1, 0.3, 0.7, {bench: (1, 1, 0.3, 0.7)}),
        # A builtin under two layers splits by the time spent under each.
        builtin: (4, 4, 0.8, 0.8, {link: (2, 2, 0.6, 0.6), kernel: (2, 2, 0.2, 0.2)}),
        # An unowned repro module called by the bench stays unattributed;
        # called by a layer it belongs to that layer.
        config: (2, 2, 0.4, 0.4, {bench: (1, 1, 0.1, 0.1), kernel: (1, 1, 0.3, 0.3)}),
    }
    agg = layers.aggregate(stats, counters={"net.transfers": [link]})
    assert agg["total_s"] == pytest.approx(1.8)
    assert agg["self_s"]["net"] == pytest.approx(0.2 + 0.6)
    assert agg["self_s"]["sim"] == pytest.approx(0.3 + 0.2 + 0.3)
    assert agg["unattributed_s"] == pytest.approx(0.1 + 0.1)
    assert agg["calls"]["net"] == 1 and agg["calls"]["sim"] == 1
    assert agg["events"] == {"net.transfers": 1}


def test_host_verdicts():
    def verdict(old, new):
        return compare.host_verdict(run.quartiles(old), run.quartiles(new), 0.1, "lower")

    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    noisy = [0.7, 1.4, 1.0, 0.8, 1.3]
    assert verdict(steady, [1.01, 1.00, 1.02, 0.99, 1.00]) == "same"
    assert verdict(steady, [1.21, 1.20, 1.22, 1.19, 1.20]) == "worse"
    assert verdict(steady, [0.5, 0.51, 0.49, 0.5, 0.52]) == "better"
    assert verdict(steady, noisy) == "unresolved"
    # A spread wider than the bound still reads better when every new
    # sample beats every old one.
    assert verdict(noisy, [0.4, 0.6, 0.5, 0.45, 0.55]) == "better"


def test_exact_verdicts():
    assert compare.exact_verdict(1.5, 1.5, "lower") == "same"
    assert compare.exact_verdict(1.5, 1.6, "lower") == "worse"
    assert compare.exact_verdict(0.9, 0.95, "higher") == "better"
    assert compare.exact_verdict("ab", "cd", None) == "worse"
