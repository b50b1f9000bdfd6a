#!/usr/bin/env python
"""AMPoM adapting to network conditions (paper section 5.5).

Runs the same DGEMM migrant over Fast Ethernet and over a tc-shaped
broadband link (6 Mb/s, 2 ms), and additionally demonstrates *mid-run*
adaptation: the link is reshaped while the migrant executes, and the
oM_infoD daemon's measurements steer the prefetcher's dependent-zone size
through eq. 3's ``t = 2*t0 + td + 1/r`` horizon.

Run:  python examples/network_adaptation.py
"""

from repro import (
    AmpomMigration,
    ScenarioRuntime,
    hpcc_workload,
    mbit_per_s,
    ms,
    two_node_spec,
)
from repro.metrics.report import format_table


def run_static() -> None:
    rows = []
    for label, bw, lat in (
        ("Fast Ethernet 100Mb/s", None, None),
        ("broadband 6Mb/s/2ms", mbit_per_s(6.0), ms(2.0)),
    ):
        workload = hpcc_workload("DGEMM", 115, scale=1 / 4)
        runtime = ScenarioRuntime(
            two_node_spec(
                workload,
                AmpomMigration(),
                shaped_bandwidth_bps=bw,
                shaped_latency_s=lat,
            )
        )
        (result,) = runtime.execute()
        cond = runtime.migrant_infods[0].conditions()
        rows.append(
            [
                label,
                result.total_time,
                result.budget.stall,
                result.counters.prefetched_pages_per_fault,
                cond.rtt_s * 1e3,
            ]
        )
    print("Static network comparison (DGEMM, quarter scale):\n")
    print(
        format_table(
            ["network", "total s", "stall s", "prefetch/fault", "measured RTT ms"], rows
        )
    )


def run_dynamic() -> None:
    """Reshape the link to broadband halfway through the run."""
    workload = hpcc_workload("STREAM", 115, scale=1 / 4)
    runtime = ScenarioRuntime(two_node_spec(workload, AmpomMigration()))
    shaper = runtime.cluster.shaper("home", "dest")
    shaper.schedule(runtime.sim, at=2.0, bandwidth_bps=mbit_per_s(6.0), latency_s=ms(2.0))
    (result,) = runtime.execute()
    cond = runtime.migrant_infods[0].conditions()
    print("\nMid-run reshaping (STREAM; link drops to 6 Mb/s at t=2 s):")
    print(f"  total time          : {result.total_time:.2f} s")
    print(f"  stall time          : {result.budget.stall:.2f} s")
    print(f"  final measured RTT  : {cond.rtt_s * 1e3:.2f} ms")
    print(f"  final est. bandwidth: {cond.available_bw_bps / 1e6:.3f} MB/s")
    print("  (the daemon's estimates track the shaped link, growing the")
    print("   prefetch horizon so pipelining continues at the lower rate)")


if __name__ == "__main__":
    run_static()
    run_dynamic()
