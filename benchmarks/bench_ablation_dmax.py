"""Ablation: maximum analysed stride ``dmax`` (paper fixes dmax = 4).

Section 4 argues most programs show at most two-level indirection
(stride-3), so dmax = 4 captures "most sequential memory access".  Two
probes locate the sensitivity boundaries:

* **FFT** — its reordering pass interleaves a source and a destination
  stream (same-stream re-reference distance 2), so dmax = 1 collapses
  while dmax >= 2 recovers nearly all prefetching;
* **4 interleaved streams** (synthetic) — same-stream distance 4, so the
  paper's dmax = 4 is exactly the minimum that detects it, validating the
  choice against the widest pattern the evaluation contains (radix-4
  butterflies).
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.experiments import figures
from repro.metrics.report import format_table
from repro.migration.ampom import AmpomMigration
from repro.units import mib
from repro.workloads.synthetic import StridedWorkload

from ._common import emit

DMAXES = (1, 2, 3, 4, 8)


def _config(dmax):
    base = figures.scaled_config(figures.DEFAULT_SCALE)
    return base.with_(ampom=replace(base.ampom, dmax=dmax, min_zone_pages=0))


def _sweep():
    rows = []
    for dmax in DMAXES:
        fft = figures.run_one(
            "FFT", 129, "AMPoM", scale=figures.DEFAULT_SCALE, config=_config(dmax)
        )
        rows.append(("FFT", dmax, fft.counters.page_fault_requests, fft.total_time))
    for dmax in DMAXES:
        spec = two_node_spec(
            StridedWorkload(mib(16), streams=4), AmpomMigration(), config=_config(dmax)
        )
        r = ScenarioRuntime(spec).execute()[0]
        rows.append(("4-streams", dmax, r.counters.page_fault_requests, r.total_time))
    return rows


def bench_ablation_dmax(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "ablation_dmax",
        format_table(["workload", "dmax", "fault requests", "total s"], rows),
    )
    fft = {d: f for w, d, f, _ in rows if w == "FFT"}
    streams4 = {d: f for w, d, f, _ in rows if w == "4-streams"}
    # FFT's reorder pass needs dmax >= 2.
    assert fft[2] < fft[1] / 4
    assert fft[4] <= fft[2] * 1.2
    # Four interleaved streams need the paper's dmax = 4.
    assert streams4[4] < streams4[3] / 4
    assert streams4[8] <= streams4[4] * 1.2
