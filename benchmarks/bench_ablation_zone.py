"""Ablation: dependent-zone floor and adaptive vs constant horizon.

Two design choices DESIGN.md calls out:

* the zone-size floor (Linux swap-in read-ahead baseline) — responsible
  for RandomAccess's 85% fault prevention (section 5.3/5.4);
* the adaptive horizon ``t = 2*t0 + td + 1/r`` from *measured* network
  conditions vs a constant horizon (no oM_infoD feedback).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import figures
from repro.metrics.report import format_table

from ._common import emit


def _run_ra(min_zone, with_infod=True):
    base = figures.scaled_config(figures.DEFAULT_SCALE)
    config = base.with_(ampom=replace(base.ampom, min_zone_pages=min_zone))
    from repro.cluster.session import ScenarioRuntime
    from repro.cluster.topology import two_node_spec
    from repro.migration.ampom import AmpomMigration
    from repro.workloads.hpcc import hpcc_workload

    workload = hpcc_workload("RandomAccess", 129, scale=figures.DEFAULT_SCALE)
    spec = two_node_spec(workload, AmpomMigration(), config=config, with_infod=with_infod)
    return ScenarioRuntime(spec).execute()[0]


def _sweep():
    rows = []
    for min_zone in (0, 4, 8, 16):
        r = _run_ra(min_zone)
        rows.append(
            ("floor", min_zone, r.counters.page_fault_requests, r.total_time)
        )
    # Constant-horizon variant: no monitoring daemon; the prefetcher falls
    # back to static wire parameters (no queue/daemon feedback).
    r = _run_ra(8, with_infod=False)
    rows.append(("no-infod", 8, r.counters.page_fault_requests, r.total_time))
    return rows


def bench_ablation_zone(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "ablation_zone_floor",
        format_table(["variant", "min zone", "fault requests", "total s"], rows),
    )
    floors = {mz: f for v, mz, f, _ in rows if v == "floor"}
    # The floor is what rescues the random-access pattern.
    assert floors[8] < floors[0] / 2
    assert floors[16] <= floors[8]
    # Without infoD feedback the horizon shrinks and prevention drops.
    no_infod = next(f for v, _, f, _ in rows if v == "no-infod")
    assert no_infod >= floors[8]
