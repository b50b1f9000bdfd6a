"""Per-layer accounting of a ``cProfile`` run.

A layer is a ``repro`` subpackage.  Each profiled function belongs to the
layer whose directory holds its file.  Time in a function no layer owns
(C builtins, the standard library, numpy, ``repro.config`` and other
top-level modules) is charged to the layer that called it, split in
proportion to the time spent under each caller; time with no layer
anywhere above it (the benchmark's own loop) stays *unattributed*.
"""

from __future__ import annotations

import importlib
from pathlib import PurePath

LAYERS = (
    "sim",
    "net",
    "mem",
    "core",
    "migration",
    "node",
    "cluster",
    "faults",
    "obs",
    "workloads",
    "metrics",
)

#: Event counters: metric -> functions whose call counts it sums, either
#: ``"module:Class.method"`` or ``"layer:name"`` (every function of that
#: name defined in the layer).
EVENT_COUNTERS: dict[str, tuple[str, ...]] = {
    "sim.events": (
        "repro.sim.events:EventQueue.push",
        "repro.sim.events:EventQueue.push_callback",
    ),
    "net.connects": ("repro.net.network:Network.connect",),
    "core.analyses": ("core:on_fault",),
    "node.serve_calls": ("repro.node.deputy:Deputy.serve_pages",),
    "cluster.loads_calls": ("repro.cluster.scheduler:ClusterScheduler._loads",),
    "cluster.gossip_updates": ("repro.cluster.gossip:GossipLoadMap._send_update",),
    "obs.fleet_pushes": ("repro.obs.fleet:FleetTelemetry.push",),
    "obs.journey_records": ("repro.obs.journeys:JourneyLog.record",),
}


def layer_of(filename: str) -> str | None:
    """The layer owning ``filename``, or ``None`` outside every layer."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, 0, -1):
        if parts[i - 1] == "repro" and parts[i] in LAYERS:
            return parts[i]
    return None


def counter_keys(stats: dict) -> dict[str, list[tuple]]:
    """Resolve :data:`EVENT_COUNTERS` to the pstats keys present in ``stats``."""
    keys: dict[str, list[tuple]] = {}
    for metric, specs in EVENT_COUNTERS.items():
        hits: list[tuple] = []
        for spec in specs:
            where, name = spec.split(":")
            if where in LAYERS:
                hits.extend(f for f in stats if f[2] == name and layer_of(f[0]) == where)
                continue
            obj = importlib.import_module(where)
            for attr in name.split("."):
                obj = getattr(obj, attr)
            code = obj.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in stats:
                hits.append(key)
        keys[metric] = hits
    return keys


def _shares(stats: dict) -> dict:
    """func -> {layer or None: fraction of its self time}."""
    memo: dict = {}

    def share(func, active: frozenset) -> dict:
        owner = layer_of(func[0])
        if owner is not None:
            return {owner: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        if func in active or not callers:
            return {None: 1.0}
        # Weight each caller edge by the time spent in ``func`` under it;
        # fall back to call counts when every edge rounds to zero time.
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values()) or 1.0
        out: dict = {}
        for caller, w in weights.items():
            for layer, frac in share(caller, active | {func}).items():
                out[layer] = out.get(layer, 0.0) + frac * w / total
        memo[func] = out
        return out

    return {func: share(func, frozenset()) for func in stats}


def aggregate(stats: dict, counters: dict[str, list[tuple]] | None = None) -> dict:
    """Per-layer self time, call counts and event counts of ``stats``
    (``pstats.Stats(profile).stats``).  ``counters`` overrides
    :func:`counter_keys` (the self-test passes synthetic keys)."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    unattributed = 0.0
    total = 0.0
    for func, shares in _shares(stats).items():
        _cc, nc, tt, _ct, _callers = stats[func]
        total += tt
        owner = layer_of(func[0])
        if owner is not None:
            calls[owner] += nc
        for layer, frac in shares.items():
            if layer is None:
                unattributed += tt * frac
            else:
                self_s[layer] += tt * frac
    if counters is None:
        counters = counter_keys(stats)
    return {
        "total_s": total,
        "self_s": self_s,
        "calls": calls,
        "unattributed_s": unattributed,
        "events": {m: sum(stats[f][1] for f in fs) for m, fs in counters.items()},
    }
