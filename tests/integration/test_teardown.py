"""A finished run is freed by reference counting alone.

Each case runs with the cyclic garbage collector switched off, drops
every reference to what it built, and then asks the collector what only
it could have freed (``gc.DEBUG_SAVEALL`` keeps that in ``gc.garbage``).
No object of a ``repro`` class may be among it: a reference cycle through
a run's simulator, runtime, driver or a failed process keeps the whole run
(network, links, deputies, page tables) in memory until a full
collection, which a long sweep of runs in one process may never reach.
See docs/PERFORMANCE.md, "Freed runs".
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.cluster.chaos import chaos_cell
from repro.cluster.session import ScenarioRuntime
from repro.cluster.sustained import SustainedLoadDriver
from repro.cluster.topology import build_preset
from repro.config import NodeFaultSpec, RetrySpec
from repro.errors import MigrationError
from repro.experiments.figures import run_one
from repro.obs import Observability


def _origin(obj) -> str:
    """Module-qualified name of a function, or of ``obj``'s class."""
    if isinstance(obj, types.FunctionType):
        return f"{obj.__module__}.{obj.__qualname__}"
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _suspended_repro_generators() -> list:
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, types.GeneratorType)
        and obj.gi_frame is not None
        and obj.gi_frame.f_globals.get("__name__", "").startswith("repro")
    ]


def cyclic_repro_garbage(run) -> list[str]:
    """Call ``run()`` with the cyclic collector off and return the sorted
    ``repro`` names among the objects only that collector could free.
    ``run``'s return value is held across the collection, the way a caller
    keeps a run's result or Observability bundle.

    A process generator still suspended once its run is over counts too:
    the collector frees a cycle through it by finalizing the generator,
    and what that frees never reaches ``gc.garbage``."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = {id(gen) for gen in _suspended_repro_generators()}
        kept = run()
        names = {
            f"suspended {gen.__qualname__}"
            for gen in _suspended_repro_generators()
            if id(gen) not in before
        }
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        names.update(name for name in map(_origin, gc.garbage) if name.startswith("repro"))
        del kept
        return sorted(names)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _armed() -> Observability:
    return Observability.enabled(trace=True, metrics=True, fleet=True, journeys=True)


# ----------------------------------------------------------------------
# the cases
# ----------------------------------------------------------------------
def _preset_run(preset: str, seed: int = 0):
    def run():
        return ScenarioRuntime(build_preset(preset, "AMPoM", scale=1 / 32, seed=seed)).execute()

    return run


def _chaos_kill():
    run, violation = chaos_cell("pair", "AMPoM", 3)
    assert run.outcome == "killed" and run.kills == 1 and violation is None
    return run


def _raising_run():
    # No retries, and the re-hop target is dark when the hop is due: the
    # migrant fails after its first leg, with an infod and an executor.
    spec = build_preset("three-hop", "AMPoM", scale=1 / 16)
    spec.config = spec.config.with_(
        node_faults=NodeFaultSpec(crash_windows=(("n2", 0.2, 0.5),)),
        retry=RetrySpec(max_attempts=0),
    )
    try:
        ScenarioRuntime(spec).execute()
    except MigrationError:
        return None
    raise AssertionError("the run was expected to exhaust its retries")


def _figure_cell():
    return run_one("STREAM", 115, "AMPoM", scale=1 / 32)


def _sustained(obs=None, faults: bool = False):
    spec = build_preset("cluster_32", seed=3)
    config = spec.config
    if faults:
        config = config.with_(
            node_faults=NodeFaultSpec(crash_rate_hz=0.05, mean_downtime_s=2.0, horizon_s=20.0)
        )
    driver = SustainedLoadDriver(spec.graph, spec.sustained, config=config)
    result = driver.execute(obs=obs)
    if faults:
        # Kills, aborts and re-targets all happened.
        stats = driver.runtime.node_stats
        assert stats.kills > 0 and stats.retargets > 0
    return result, obs


CASES = {
    "pair": _preset_run("pair"),
    "three-hop-lossy": _preset_run("three-hop-lossy", seed=7),
    "chaos-kill": _chaos_kill,
    "execute-raises": _raising_run,
    "run_one": _figure_cell,
    "cluster_32-bare": lambda: _sustained(),
    "cluster_32-armed": lambda: _sustained(obs=_armed()),
    "cluster_32-node-faults": lambda: _sustained(faults=True),
}


@pytest.mark.parametrize("case", CASES)
def test_a_finished_run_leaves_no_cycles(case):
    assert cyclic_repro_garbage(CASES[case]) == []

