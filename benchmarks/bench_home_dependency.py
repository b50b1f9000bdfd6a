"""Extension: the home-dependency cost for syscall-heavy migrants (sec. 7).

"The current implementation of openMosix requires all system calls being
redirected to the home node of the process, which significantly affects
the performance of I/O-intensive applications."  This bench sweeps the
syscall intensity of a migrated process: each sweep of its memory ends in
a system call that the deputy must execute at the home node, paying a
round trip on top of the service time.
"""

from __future__ import annotations

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import two_node_spec
from repro.experiments import figures
from repro.metrics.report import format_table
from repro.migration.ampom import AmpomMigration
from repro.units import mib, ms
from repro.workloads.base import Syscall
from repro.workloads.synthetic import SequentialWorkload

from ._common import emit

SERVICE_TIMES_MS = (0.0, 0.5, 2.0, 8.0)
SWEEPS = 24


def _run(service_ms: float):
    syscall = Syscall(service_time=ms(service_ms)) if service_ms > 0 else None
    workload = SequentialWorkload(
        mib(4), sweeps=SWEEPS, syscall_every_sweep=syscall
    )
    spec = two_node_spec(
        workload, AmpomMigration(), config=figures.scaled_config(figures.DEFAULT_SCALE)
    )
    return ScenarioRuntime(spec).execute()[0]


def _sweep():
    out = []
    for service_ms in SERVICE_TIMES_MS:
        r = _run(service_ms)
        out.append(
            (
                service_ms,
                r.counters.syscalls_forwarded,
                r.budget.syscall,
                r.total_time,
            )
        )
    return out


def bench_home_dependency(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "home_dependency",
        format_table(
            ["syscall service ms", "syscalls forwarded", "syscall wait s", "total s"],
            rows,
        ),
    )
    base = rows[0]
    heavy = rows[-1]
    assert base[1] == 0 and base[2] == 0.0
    assert heavy[1] == SWEEPS
    # Each forwarded call costs at least the round trip + service time.
    assert heavy[2] > SWEEPS * ms(8.0)
    assert heavy[3] > base[3]
