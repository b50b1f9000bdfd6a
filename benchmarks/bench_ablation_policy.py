"""Ablation: AMPoM vs fixed/Linux read-ahead prefetch policies.

Pairs AMPoM's lightweight freeze with baseline policies (section 5.3
likens AMPoM's fallback to a fixed-size read-ahead).  The adaptive policy
should match the best fixed policy on STREAM without the fixed policy's
waste on RandomAccess.  Policies are addressed by their registry names
(see repro.core.policy.POLICIES and docs/POLICIES.md).
"""

from __future__ import annotations

from repro.experiments import figures
from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.migration.ampom import AmpomMigration
from repro.metrics.report import format_table
from repro.workloads.hpcc import hpcc_workload

from ._common import emit

POLICY_NAMES = ("ampom", "readahead-8", "readahead-64", "linux-readahead")


def _run(kernel, mb, policy):
    workload = hpcc_workload(kernel, mb, scale=figures.DEFAULT_SCALE)
    spec = two_node_spec(
        workload,
        AmpomMigration(prefetch_policy=policy),
        config=figures.scaled_config(figures.DEFAULT_SCALE),
    )
    return ScenarioRuntime(spec).execute()[0]


def _sweep():
    rows = []
    for kernel, mb in (("STREAM", 230), ("RandomAccess", 129)):
        for name in POLICY_NAMES:
            r = _run(kernel, mb, name)
            rows.append(
                (kernel, name, r.counters.page_fault_requests, r.total_time, r.wasted_pages)
            )
    return rows


def bench_ablation_policy(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "ablation_prefetch_policy",
        format_table(["kernel", "policy", "fault requests", "total s", "wasted pages"], rows),
    )
    data = {(k, p): (f, t) for k, p, f, t, _ in rows}
    # On STREAM, adaptive AMPoM is at least as good as a deep fixed window.
    assert data[("STREAM", "ampom")][1] <= data[("STREAM", "readahead-8")][1] * 1.05
    # On STREAM, ampom prevents far more faults than an 8-page window.
    assert data[("STREAM", "ampom")][0] < data[("STREAM", "readahead-8")][0]
