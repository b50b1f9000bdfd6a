"""repro — a simulation-based reproduction of *Lightweight Process
Migration and Memory Prefetching in openMosix* (Ho, Wang, Lau — IPDPS
2008).

The library models an openMosix-style cluster in a deterministic
discrete-event simulation and implements the paper's AMPoM system —
lightweight (three-page + page-table) migration with adaptive memory
prefetching — alongside the openMosix full-copy and FFA/NoPrefetch
baselines, the four HPCC workload locality classes, and a harness that
regenerates every table and figure of the evaluation.

Quick start::

    from repro import AmpomMigration, ScenarioRuntime, StreamWorkload, mib, two_node_spec

    spec = two_node_spec(StreamWorkload(mib(64)), AmpomMigration())
    result = ScenarioRuntime(spec).execute()[0]
    print(result.freeze_time, result.total_time,
          result.counters.page_fault_requests)
"""

from .cluster.cluster import Cluster
from .cluster.gossip import GossipLoadMap
from .cluster.loadgen import BackgroundLoad, LoadWindow
from .cluster.scheduler import ClusterScheduler, SchedulerReport, Task
from .cluster.session import ScenarioRuntime
from .cluster.topology import two_node_spec
from .config import (
    AMPoMConfig,
    HardwareSpec,
    InfoDConfig,
    NetworkSpec,
    SimulationConfig,
)
from .core.policy import (
    FixedReadAheadPolicy,
    LinkConditions,
    LinuxReadAheadPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
)
from .core.prefetcher import AMPoMPrefetcher
from .core.vm_prefetcher import VmAmpomPrefetcher
from .errors import (
    ConfigurationError,
    MemoryStateError,
    MigrationError,
    NetworkError,
    ReproError,
    SimulationError,
)
from .migration.ampom import AmpomMigration
from .migration.base import MigrationOutcome, MigrationStrategy
from .migration.executor import ExecutionResult, MigrantExecutor
from .migration.ffa import FfaMigration
from .migration.noprefetch import NoPrefetchMigration
from .migration.openmosix import OpenMosixMigration
from .migration.precopy import PrecopyMigration
from .metrics.counters import Counters
from .metrics.eventlog import FaultEvent, FaultLog
from .metrics.timeline import TimeBudget
from .sim.kernel import Simulator
from .units import PAGE_SIZE, mbit_per_s, mib, ms, pages_for, us
from .workloads.dgemm import DgemmWorkload
from .workloads.fft import FftWorkload
from .workloads.hpcc import HPCC_SIZES, hpcc_workload, kernel_sizes_mb
from .workloads.multiprocess import MultiProcessWorkload
from .workloads.randomaccess import RandomAccessWorkload
from .workloads.replay import ReplayWorkload
from .workloads.stream import StreamWorkload
from .workloads.workingset import WorkingSetDgemmWorkload

__version__ = "1.0.0"

__all__ = [
    "AMPoMConfig",
    "AMPoMPrefetcher",
    "AmpomMigration",
    "BackgroundLoad",
    "Cluster",
    "ClusterScheduler",
    "ConfigurationError",
    "Counters",
    "DgemmWorkload",
    "ExecutionResult",
    "FaultEvent",
    "FaultLog",
    "FfaMigration",
    "FftWorkload",
    "FixedReadAheadPolicy",
    "GossipLoadMap",
    "HPCC_SIZES",
    "HardwareSpec",
    "InfoDConfig",
    "LinkConditions",
    "LinuxReadAheadPolicy",
    "LoadWindow",
    "MemoryStateError",
    "MigrantExecutor",
    "MigrationError",
    "MigrationOutcome",
    "MigrationStrategy",
    "MultiProcessWorkload",
    "NetworkError",
    "NetworkSpec",
    "NoPrefetchMigration",
    "NoPrefetchPolicy",
    "OpenMosixMigration",
    "PAGE_SIZE",
    "PrecopyMigration",
    "PrefetchPolicy",
    "RandomAccessWorkload",
    "ReplayWorkload",
    "ReproError",
    "ScenarioRuntime",
    "SchedulerReport",
    "SimulationConfig",
    "SimulationError",
    "Simulator",
    "StreamWorkload",
    "Task",
    "TimeBudget",
    "VmAmpomPrefetcher",
    "WorkingSetDgemmWorkload",
    "hpcc_workload",
    "kernel_sizes_mb",
    "mbit_per_s",
    "mib",
    "ms",
    "pages_for",
    "two_node_spec",
    "us",
]
