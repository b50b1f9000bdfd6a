#!/usr/bin/env python
"""Compare the three migration schemes of the paper on one workload.

Reproduces the core trade-off (sections 5.2-5.4) in miniature: openMosix
freezes the process for the whole transfer, NoPrefetch resumes instantly
but stalls on every first touch, AMPoM resumes almost instantly *and*
hides the fault latency by adaptive prefetching.

Run:  python examples/compare_schemes.py [kernel] [MB]
"""

import sys

from repro import (
    AmpomMigration,
    NoPrefetchMigration,
    OpenMosixMigration,
    ScenarioRuntime,
    hpcc_workload,
    two_node_spec,
)
from repro.metrics.report import format_table

SCHEMES = {
    "openMosix": OpenMosixMigration,
    "NoPrefetch": NoPrefetchMigration,
    "AMPoM": AmpomMigration,
}


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "DGEMM"
    memory_mb = float(sys.argv[2]) if len(sys.argv) > 2 else 115
    scale = 1 / 4  # quarter-size programs keep this interactive

    rows = []
    for name, factory in SCHEMES.items():
        workload = hpcc_workload(kernel, memory_mb, scale=scale)
        result = ScenarioRuntime(two_node_spec(workload, factory())).execute()[0]
        c = result.counters
        rows.append(
            [
                name,
                result.freeze_time,
                result.run_time,
                result.total_time,
                c.page_fault_requests,
                c.pages_prefetched,
                result.budget.stall,
            ]
        )

    print(f"{kernel} at {memory_mb * scale:.0f} MiB (paper size {memory_mb:.0f} MB x {scale}):\n")
    print(
        format_table(
            ["scheme", "freeze s", "run s", "total s", "fault reqs", "prefetched", "stall s"],
            rows,
        )
    )
    print(
        "\nopenMosix: long freeze, zero faults."
        "\nNoPrefetch: instant resume, a blocking round trip per page."
        "\nAMPoM: near-instant resume, faults hidden by prefetching."
    )


if __name__ == "__main__":
    main()
