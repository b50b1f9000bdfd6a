"""Fault tolerance: runtime and retransmission cost across loss rates.

Sweeps the reliable remote-paging protocol over message-loss rates
{0, 0.1%, 1%, 5%} for two HPCC workloads (sequential STREAM and pointer-
chasing RandomAccess).  Reports run time, drops, timeouts, retransmits,
and wasted (written-off) pages per cell.  The zero-loss row doubles as a
regression anchor: it must match the fault-free code path exactly.

``bench_node_churn`` sweeps whole-node crash rates instead: the
contention preset under seeded random crash schedules, reporting the
survival/kill split, abort and detection counts, and mean detection
latency per rate.  The zero-rate row anchors against the fault-free
path; every cell runs with the invariant checker forced on.
"""

from __future__ import annotations

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import make_strategy, two_node_spec
from repro.config import FaultSpec
from repro.experiments import figures
from repro.metrics.report import FAULT_SUMMARY_HEADERS, fault_summary_row, format_table
from repro.workloads.hpcc import hpcc_workload

from ._common import emit

SCALE = 0.03125
LOSS_RATES = (0.0, 0.001, 0.01, 0.05)
WORKLOADS = (("STREAM", 115.0), ("RandomAccess", 65.0))


def _run_cell(kernel: str, mb: float, loss_rate: float):
    config = figures.scaled_config(SCALE, seed=0)
    if loss_rate > 0.0:
        config = config.with_(faults=FaultSpec(loss_rate=loss_rate))
    spec = two_node_spec(
        hpcc_workload(kernel, mb, scale=SCALE),
        make_strategy("AMPoM"),
        config=config,
    )
    return ScenarioRuntime(spec).execute()[0]


def _sweep():
    rows = []
    clean = {}
    for kernel, mb in WORKLOADS:
        for loss in LOSS_RATES:
            result = _run_cell(kernel, mb, loss)
            if loss == 0.0:
                clean[kernel] = result
            rows.append([kernel, f"{loss:.1%}"] + fault_summary_row(result))
    return rows, clean


def bench_fault_tolerance(benchmark):
    rows, clean = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "fault_tolerance",
        format_table(["kernel", "loss"] + FAULT_SUMMARY_HEADERS, rows),
    )

    by_cell = {(r[0], r[1]): r for r in rows}
    for kernel, _mb in WORKLOADS:
        zero = by_cell[(kernel, "0.0%")]
        # Zero loss means zero reliability machinery engaged.
        assert zero[3:] == [0, 0, 0, 0, 0]
        # Loss costs time and retransmissions, monotonically in tendency:
        # the 5% cell is strictly worse than the clean run.
        worst = by_cell[(kernel, "5.0%")]
        assert worst[2] > zero[2]  # run time
        assert worst[3] > 0  # retransmits
        assert worst[5] > 0  # drops
        # Every cell completed (no hang, no MigrationError) — reaching
        # this assertion is the proof.
        assert len(rows) == len(WORKLOADS) * len(LOSS_RATES)


# ----------------------------------------------------------------------
# node churn: whole-node crash-rate sweep (docs/FAULTS.md)
# ----------------------------------------------------------------------

CRASH_RATES = (0.0, 0.5, 1.0, 2.0)
CHURN_SEEDS = (0, 1, 2)
CHURN_HEADERS = [
    "crash/s",
    "survived",
    "killed",
    "crashes",
    "aborts",
    "repairs",
    "detections",
    "mean det. lat. s",
]


def _churn_row(rate: float):
    from repro.cluster.chaos import chaos_cell

    runs = []
    for seed in CHURN_SEEDS:
        run, violation = chaos_cell("contention", "AMPoM", seed=seed, crash_rate_hz=rate)
        assert violation is None, f"invariant violation at rate={rate} seed={seed}"
        runs.append(run)
    detections = sum(r.detections for r in runs)
    latency_total = sum(r.mean_detection_latency_s * r.detections for r in runs)
    return [
        f"{rate:.2f}",
        sum(1 for r in runs if r.survived),
        sum(1 for r in runs if r.outcome == "killed"),
        sum(r.crashes for r in runs),
        sum(r.migration_aborts for r in runs),
        sum(r.chain_repairs for r in runs),
        detections,
        f"{latency_total / detections:.4f}" if detections else "0.0000",
    ]


def _churn_sweep():
    return [_churn_row(rate) for rate in CRASH_RATES]


def bench_node_churn(benchmark):
    rows = benchmark.pedantic(_churn_sweep, rounds=1, iterations=1)
    emit("node_churn", format_table(CHURN_HEADERS, rows))

    zero = rows[0]
    # A zero crash rate draws no crash schedule at all: every run
    # survives and the failure machinery never engages.
    assert zero[1] == len(CHURN_SEEDS)
    assert zero[2:7] == [0, 0, 0, 0, 0]
    # The heaviest churn actually crashes nodes, and survival at the top
    # rate never beats the crash-free anchor.
    worst = rows[-1]
    assert worst[3] > 0
    assert worst[1] <= zero[1]
    # Crashes under the heaviest churn are actually *detected* (probe
    # timeout escalation), with a positive mean latency.
    assert worst[6] > 0
    assert float(worst[7]) > 0.0
    # Every cell completed with the checker on — reaching here proves
    # zero invariant violations across the sweep.
    assert len(rows) == len(CRASH_RATES)


# Also expose the fault-free vs fault-injected comparison for a clean-run
# identity check usable without the benchmark harness.
def verify_zero_loss_identity():
    """The loss_rate=0 sweep cell is bit-identical to the seed path."""
    kernel, mb = WORKLOADS[0]
    a = _run_cell(kernel, mb, 0.0).to_dict()
    config = figures.scaled_config(SCALE, seed=0)
    spec = two_node_spec(
        hpcc_workload(kernel, mb, scale=SCALE), make_strategy("AMPoM"), config=config
    )
    b = ScenarioRuntime(spec).execute()[0].to_dict()
    return a == b
