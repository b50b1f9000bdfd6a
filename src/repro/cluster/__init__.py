"""Cluster assembly and end-to-end experiment drivers.

:class:`repro.cluster.topology.ScenarioSpec` +
:class:`repro.cluster.session.ScenarioRuntime` run every fixed-migrant
experiment: a declarative node graph with per-link overrides, any number
of migrants, multi-hop re-migration paths.  The paper's classic two-node
run is ``ScenarioRuntime(two_node_spec(workload, strategy)).execute()[0]``,
an :class:`repro.migration.executor.ExecutionResult`.  Fleet-scale
sustained load (arrival streams + decentralized policies) lives in
:mod:`repro.cluster.sustained`.
"""

from .chaos import ChaosReport, ChaosRun, chaos_cell, run_chaos
from .cluster import Cluster
from .gossip import GossipLoadMap
from .loadgen import (
    ArrivalSpec,
    ArrivalStream,
    BackgroundLoad,
    LoadWindow,
    ProcessArrival,
    peak_procs,
)
from .parallel import parallel_map, resolve_jobs
from .policy import (
    BalancedPolicy,
    ConvergedView,
    DefragPolicy,
    MigrationPolicy,
    POLICIES,
    ThresholdPolicy,
    make_policy,
)
from .scheduler import (
    ClusterScheduler,
    MigrationDecision,
    SchedulerReport,
    Task,
)
from .session import ScenarioRuntime
from .sustained import (
    SchedulerDriveResult,
    SustainedLoadDriver,
    SustainedReport,
    SustainedResult,
    UtilizationSample,
    run_sustained,
)
from .topology import (
    DEST,
    FILE_SERVER,
    HOME,
    LinkSpec,
    MigrantSpec,
    NodeGraph,
    PRESETS,
    ScenarioSpec,
    SustainedSpec,
    build_preset,
    load_scenario,
    scenario_from_dict,
    two_node_spec,
)

__all__ = [
    "ArrivalSpec",
    "ArrivalStream",
    "BackgroundLoad",
    "BalancedPolicy",
    "ChaosReport",
    "ChaosRun",
    "Cluster",
    "ClusterScheduler",
    "ConvergedView",
    "DEST",
    "DefragPolicy",
    "FILE_SERVER",
    "GossipLoadMap",
    "HOME",
    "LinkSpec",
    "LoadWindow",
    "MigrantSpec",
    "MigrationDecision",
    "MigrationPolicy",
    "NodeGraph",
    "POLICIES",
    "PRESETS",
    "ProcessArrival",
    "ScenarioRuntime",
    "ScenarioSpec",
    "SchedulerDriveResult",
    "SchedulerReport",
    "SustainedLoadDriver",
    "SustainedReport",
    "SustainedResult",
    "SustainedSpec",
    "Task",
    "ThresholdPolicy",
    "UtilizationSample",
    "build_preset",
    "chaos_cell",
    "load_scenario",
    "make_policy",
    "parallel_map",
    "peak_procs",
    "resolve_jobs",
    "run_chaos",
    "run_sustained",
    "scenario_from_dict",
    "two_node_spec",
]
