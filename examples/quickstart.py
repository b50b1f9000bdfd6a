#!/usr/bin/env python
"""Quickstart: migrate one process with AMPoM and read the telemetry.

Builds a 64 MiB STREAM-like process on the simulated Gideon-300 cluster,
migrates it with AMPoM (three pages + the master page table), and prints
the freeze time, the execution-time breakdown, and the remote-paging
counters.

Every experiment is a scenario spec run by a ``ScenarioRuntime``:
``two_node_spec`` describes the paper's home -> dest migration of one
process, ``execute()`` returns one result per migrant, and the runtime
keeps the run's state (here, the destination's monitoring daemon) for
inspection afterwards.

Run:  python examples/quickstart.py
"""

from repro import AmpomMigration, ScenarioRuntime, StreamWorkload, mib, two_node_spec


def main() -> None:
    workload = StreamWorkload(mib(64), iterations=4)
    runtime = ScenarioRuntime(two_node_spec(workload, AmpomMigration()))
    (result,) = runtime.execute()

    print(f"workload            : {result.workload}, {mib(64) // mib(1)} MiB")
    print(f"migration freeze    : {result.freeze_time * 1e3:8.1f} ms")
    print(f"post-migration run  : {result.run_time:8.2f} s")
    print(f"total               : {result.total_time:8.2f} s")
    print()
    print("time breakdown (s):")
    for bucket, seconds in result.budget.as_dict().items():
        print(f"  {bucket:10s} {seconds:10.4f}")
    print()
    c = result.counters
    print(f"remote fault requests : {c.page_fault_requests}")
    print(f"pages prefetched      : {c.pages_prefetched}")
    print(f"prefetched per fault  : {c.prefetched_pages_per_fault:.1f}")
    print(f"in-flight waits       : {c.inflight_waits} (pipelining effect)")
    print(f"pages never used      : {result.wasted_pages}")

    # The monitoring daemon's view of the network at the end of the run.
    infod = runtime.migrant_infods[0]
    assert infod is not None
    cond = infod.conditions()
    print()
    print(f"oM_infoD measured RTT : {cond.rtt_s * 1e3:.2f} ms")
    print(f"available bandwidth   : {cond.available_bw_bps / 1e6:.2f} MB/s")


if __name__ == "__main__":
    main()
