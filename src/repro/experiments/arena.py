"""The prefetch-policy arena: a policies x workloads x networks x faults
tournament (``repro arena``).

Every cell pairs AMPoM's lightweight freeze (trio + MPT — the cheapest
deputy-backed scheme, so fault plans apply uniformly) with one named
prefetch policy from :data:`repro.core.policy.POLICIES`, runs the full
migration under the invariant checker, and reports the post-migration
quality axes the paper argues about: stall time, prefetch accuracy,
waste fraction, and freeze time.

Determinism is a hard contract: every cell pins its own seed, workload,
and config; cells run via :func:`repro.cluster.parallel.parallel_map`
(input-order results, fork-pool or sequential — same floats either
way); and both the table and the JSON report serialize with sorted keys.
Two invocations of the same tournament are byte-identical, which the CI
``arena-smoke`` job gates with ``cmp``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from ..config import CheckSpec, FaultSpec, NetworkSpec
from ..errors import ConfigurationError
from ..metrics.report import format_table
from ..obs.slo import percentile

#: Default policy line-up: the paper's system, both baselines from the
#: ablation study, Leap, and pure demand paging as the floor.
DEFAULT_POLICIES = ("ampom", "leap", "linux-readahead", "readahead-8", "noprefetch")

#: Paper table-1 sizes per kernel (scaled by the arena's ``scale``).
KERNEL_SIZES = {"DGEMM": 115, "STREAM": 115, "RandomAccess": 129, "FFT": 129}

#: Network profiles: the Gideon-cluster LAN (config default) and the
#: section-5.5 broadband link.
PROFILES: dict[str, NetworkSpec | None] = {
    "lan": None,
    "broadband": NetworkSpec.broadband(),
}

#: Fault plans: a perfect wire, and the lossy profile the three-hop
#: golden scenarios use.
FAULT_PLANS: dict[str, FaultSpec] = {
    "none": FaultSpec(),
    "lossy": FaultSpec(
        loss_rate=0.03, duplicate_rate=0.02, delay_rate=0.05, delay_s=0.002
    ),
}


@dataclass(frozen=True)
class ArenaCell:
    """One fully pinned tournament cell (picklable plain data)."""

    policy: str
    kernel: str
    profile: str
    fault_plan: str
    scale: float
    seed: int


def _run_cell(cell: ArenaCell) -> dict:
    """Execute one cell under ``REPRO_CHECKS``-equivalent config.

    Module-level so :func:`parallel_map` can pickle it into fork workers.
    """
    from ..cluster.session import ScenarioRuntime
    from ..cluster.topology import two_node_spec
    from ..migration.ampom import AmpomMigration
    from ..workloads.hpcc import hpcc_workload
    from . import figures

    config = figures.scaled_config(cell.scale, seed=cell.seed).with_(
        checks=CheckSpec(enabled=True), prefetch_policy=cell.policy
    )
    network = PROFILES[cell.profile]
    if network is not None:
        config = config.with_network(network)
    faults = FAULT_PLANS[cell.fault_plan]
    if faults.active:
        config = config.with_(faults=faults)
    workload = hpcc_workload(cell.kernel, KERNEL_SIZES[cell.kernel], scale=cell.scale)
    spec = two_node_spec(workload, AmpomMigration(), config=config)
    result = ScenarioRuntime(spec).execute()[0]

    c = result.counters
    prefetched = c.pages_prefetched
    wasted = result.wasted_pages
    useful = max(prefetched - wasted, 0)
    return {
        "policy": cell.policy,
        "resolved_policy": result.prefetch_policy,
        "kernel": cell.kernel,
        "profile": cell.profile,
        "fault_plan": cell.fault_plan,
        "freeze_s": result.freeze_time,
        "stall_s": result.budget.stall,
        "total_s": result.total_time,
        "fault_requests": c.page_fault_requests,
        "pages_prefetched": prefetched,
        "wasted_pages": wasted,
        "prefetch_accuracy": useful / prefetched if prefetched else 0.0,
        "waste_fraction": wasted / prefetched if prefetched else 0.0,
    }


def run_arena(
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    kernels: tuple[str, ...] = tuple(KERNEL_SIZES),
    profiles: tuple[str, ...] = ("lan", "broadband"),
    fault_plans: tuple[str, ...] = ("none", "lossy"),
    scale: float = 1 / 16,
    seed: int = 0,
    jobs: int | str | None = None,
) -> dict:
    """Run the tournament; return the JSON-ready report.

    The report carries every cell row plus a per-policy summary:
    aggregate stall, pooled prefetch accuracy / waste fraction
    (sum-of-useful over sum-of-prefetched, so empty cells do not skew a
    mean), and the nearest-rank p99 of the per-cell freeze times.
    """
    from ..cluster.parallel import parallel_map
    from ..core.policy import parse_policy_name

    for name in policies:
        parse_policy_name(name)  # fail fast, before any simulation
    for kernel in kernels:
        if kernel not in KERNEL_SIZES:
            raise ConfigurationError(
                f"unknown kernel {kernel!r}; pick from {sorted(KERNEL_SIZES)}"
            )
    for profile in profiles:
        if profile not in PROFILES:
            raise ConfigurationError(
                f"unknown network profile {profile!r}; pick from {sorted(PROFILES)}"
            )
    for plan in fault_plans:
        if plan not in FAULT_PLANS:
            raise ConfigurationError(
                f"unknown fault plan {plan!r}; pick from {sorted(FAULT_PLANS)}"
            )

    cells = [
        ArenaCell(policy, kernel, profile, plan, scale, seed)
        for policy in policies
        for kernel in kernels
        for profile in profiles
        for plan in fault_plans
    ]
    rows = parallel_map(_run_cell, cells, jobs=jobs)

    summary: dict[str, dict] = {}
    for policy in policies:
        mine = [r for r in rows if r["policy"] == policy]
        prefetched = sum(r["pages_prefetched"] for r in mine)
        wasted = sum(r["wasted_pages"] for r in mine)
        useful = max(prefetched - wasted, 0)
        summary[policy] = {
            "cells": len(mine),
            "stall_s": sum(r["stall_s"] for r in mine),
            "total_s": sum(r["total_s"] for r in mine),
            "prefetch_accuracy": useful / prefetched if prefetched else 0.0,
            "waste_fraction": wasted / prefetched if prefetched else 0.0,
            "freeze_p99_s": percentile([r["freeze_s"] for r in mine], 0.99),
        }
    return {
        "policies": list(policies),
        "kernels": list(kernels),
        "profiles": list(profiles),
        "fault_plans": list(fault_plans),
        "scale": scale,
        "seed": seed,
        "cells": rows,
        "summary": summary,
    }


def arena_table(report: dict) -> str:
    """The deterministic comparison tables (per-cell + per-policy)."""
    cell_rows = [
        [
            r["policy"],
            r["kernel"],
            r["profile"],
            r["fault_plan"],
            f"{r['stall_s']:.4f}",
            f"{r['prefetch_accuracy']:.3f}",
            f"{r['waste_fraction']:.3f}",
            f"{r['freeze_s']:.4f}",
            f"{r['total_s']:.4f}",
        ]
        for r in report["cells"]
    ]
    cells = format_table(
        [
            "policy",
            "kernel",
            "net",
            "faults",
            "stall s",
            "accuracy",
            "waste",
            "freeze s",
            "total s",
        ],
        cell_rows,
    )
    summary_rows = [
        [
            policy,
            s["cells"],
            f"{s['stall_s']:.4f}",
            f"{s['prefetch_accuracy']:.3f}",
            f"{s['waste_fraction']:.3f}",
            f"{s['freeze_p99_s']:.4f}",
            f"{s['total_s']:.4f}",
        ]
        for policy, s in report["summary"].items()
    ]
    summary = format_table(
        ["policy", "cells", "stall s", "accuracy", "waste", "freeze p99 s", "total s"],
        summary_rows,
    )
    return cells + "\n\n" + summary


def write_arena_csv(report: dict, path: str | Path) -> Path:
    """The arena figure: long-format CSV, one metric per row, in the same
    shape ``repro export`` uses so any plotting tool can recreate the
    comparison chart."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    metrics = (
        "stall_s",
        "prefetch_accuracy",
        "waste_fraction",
        "freeze_s",
        "total_s",
    )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "kernel", "profile", "fault_plan", "metric", "value"])
        for r in report["cells"]:
            for metric in metrics:
                writer.writerow(
                    [
                        r["policy"],
                        r["kernel"],
                        r["profile"],
                        r["fault_plan"],
                        metric,
                        repr(r[metric]),
                    ]
                )
    return path


def write_arena_json(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


__all__ = [
    "ArenaCell",
    "DEFAULT_POLICIES",
    "FAULT_PLANS",
    "KERNEL_SIZES",
    "PROFILES",
    "arena_table",
    "run_arena",
    "write_arena_csv",
    "write_arena_json",
]
