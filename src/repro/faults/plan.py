"""The seeded, deterministic fault schedule of one experiment.

A :class:`FaultPlan` owns every fault decision of a run:

* per-message random draws (drop / duplicate / delay), taken from an
  independent :func:`repro.sim.rng.child_rng` stream *per channel* so that
  adding traffic on one channel never perturbs another's schedule;
* the scheduled link-down windows and deputy crash windows of the
  :class:`repro.config.FaultSpec`.

Random injection is gated on :attr:`active_from` — the runner arms it at
the instant the migrant resumes, so freeze-time transfers (bulk TCP in the
modelled systems) are never perturbed.  Scheduled windows are absolute
simulated times supplied by the experimenter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..config import FaultSpec, NodeFaultSpec
from ..errors import ConfigurationError, FaultInjectionError
from ..sim.rng import child_rng
from .log import FaultInjectionLog


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """The fate drawn for one message."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0


#: The fate of a message nothing happens to.
CLEAN = FaultDecision()


def _window_contains(windows: tuple[tuple[float, float], ...], t: float) -> bool:
    """True if ``t`` falls inside any half-open window ``[start, end)``."""
    if not windows:
        return False
    i = bisect_right(windows, (t, float("inf"))) - 1
    return i >= 0 and windows[i][0] <= t < windows[i][1]


class _UniformStream:
    """One channel's uniforms, drawn from its generator a block at a time.

    ``Generator.random`` fills doubles in stream order, so handing out a
    block of ``BLOCK`` triples gives the same values as ``BLOCK`` calls of
    ``random(3)``, for one call into numpy instead of ``BLOCK``.
    """

    BLOCK = 128

    __slots__ = ("_rng", "_block", "_pos")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._block: list[float] = []
        self._pos = 0

    def take3(self) -> tuple[float, float, float]:
        """The next three uniforms of the stream."""
        pos = self._pos
        block = self._block
        if pos == len(block):
            block = self._block = self._rng.random(3 * self.BLOCK).tolist()
            pos = 0
        self._pos = pos + 3
        return block[pos], block[pos + 1], block[pos + 2]


class FaultPlan:
    """Deterministic fault decisions for one seeded experiment."""

    def __init__(
        self,
        spec: FaultSpec,
        seed: int,
        log: FaultInjectionLog | None = None,
        active_from: float = 0.0,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.log = log
        #: Simulated time before which random injection is suppressed.
        self.active_from = active_from
        self._streams: dict[str, _UniformStream] = {}

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True if this plan can ever perturb a message."""
        return self.spec.active

    def activate(self, time: float) -> None:
        """Begin random injection at ``time`` (the migrant's resume)."""
        self.active_from = time

    # ------------------------------------------------------------------
    def draw(self, channel: str, now: float) -> FaultDecision:
        """Draw the fate of one message submitted on ``channel`` at ``now``.

        Three uniforms are always consumed per message, so the stream
        position — and hence the schedule — depends only on the message
        count of the channel, not on which fault kinds are enabled.
        """
        if now < self.active_from:
            return CLEAN
        stream = self._streams.get(channel)
        if stream is None:
            stream = self._streams[channel] = _UniformStream(
                child_rng(self.seed, f"faults:{channel}")
            )
        u0, u1, u2 = stream.take3()
        spec = self.spec
        drop = u0 < spec.loss_rate
        duplicate = u1 < spec.duplicate_rate
        delay = u2 < spec.delay_rate
        if not (drop or duplicate or delay):
            return CLEAN
        return FaultDecision(
            drop=drop,
            duplicate=duplicate,
            extra_delay=spec.delay_s if delay else 0.0,
        )

    # ------------------------------------------------------------------
    def link_down(self, t: float) -> bool:
        """True if the link is flapped down at simulated time ``t``."""
        return t >= self.active_from and _window_contains(self.spec.link_down_windows, t)

    def deputy_down(self, t: float) -> bool:
        """True if the deputy is crashed at simulated time ``t``."""
        return _window_contains(self.spec.deputy_crash_windows, t)

    def deputy_restart_time(self, t: float) -> float:
        """End of the crash window containing ``t``.

        Raises :class:`FaultInjectionError` if the deputy is up at ``t``.
        """
        for start, end in self.spec.deputy_crash_windows:
            if start <= t < end:
                return end
        raise FaultInjectionError(f"deputy is not crashed at t={t}")


# ----------------------------------------------------------------------
# whole-node failure schedules
# ----------------------------------------------------------------------


def validate_windows(
    windows: Sequence[tuple[float, float]], label: str = "windows"
) -> tuple[tuple[float, float], ...]:
    """Validate a window list: every entry ``(start, end)`` with
    ``start < end``, sorted by start, non-overlapping.  Returns the
    normalized tuple; raises :class:`ConfigurationError` with an
    actionable message otherwise."""
    out = []
    for window in windows:
        if len(window) != 2:
            raise ConfigurationError(
                f"{label} entries must be (start, end) pairs, got {window!r}"
            )
        start, end = float(window[0]), float(window[1])
        if not start < end:
            raise ConfigurationError(
                f"{label} entry ({start}, {end}) is empty or inverted: "
                "start must be strictly before end"
            )
        out.append((start, end))
    for (a_start, a_end), (b_start, b_end) in zip(out, out[1:]):
        if b_start < a_start:
            raise ConfigurationError(
                f"{label} are unsorted: ({b_start}, {b_end}) starts before "
                f"({a_start}, {a_end}); list windows in increasing start order"
            )
        if b_start < a_end:
            raise ConfigurationError(
                f"{label} overlap: ({a_start}, {a_end}) and ({b_start}, {b_end}); "
                "merge them into one window or leave a gap"
            )
    return tuple(out)


def _merge_windows(windows: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Coalesce possibly-overlapping windows into a sorted disjoint set
    (used to union a node's explicit and seeded crash schedules)."""
    if not windows:
        return ()
    windows = sorted(windows)
    merged = [windows[0]]
    for start, end in windows[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return tuple(merged)


class NodeFaultPlan:
    """Seeded whole-node crash/restart schedule for one topology.

    Built from a :class:`repro.config.NodeFaultSpec` against a concrete
    node set.  Explicit windows are validated (known node, sorted,
    non-overlapping — :class:`repro.errors.ConfigurationError` otherwise);
    seeded windows are drawn per node from the independent stream
    ``child_rng(seed, "nodefaults:<node>")``, so the same seed always
    produces the same schedule and adding a node never perturbs another
    node's crashes.

    Semantics (contrast with ``FaultSpec.deputy_crash_windows``): a node
    crash is fatal to the processes the node hosted.  ``down(n, t)`` says
    whether the *node* is dark at ``t``; a deputy born at time ``b`` is
    gone for good once ``first_crash_in(n, b, t)`` finds any crash — the
    restart brings back an empty node, not the deputy.
    """

    def __init__(
        self,
        spec: NodeFaultSpec,
        seed: int,
        nodes: Iterable[str],
        protected: Iterable[str] = (),
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.nodes = tuple(nodes)
        known = set(self.nodes)
        #: Nodes crashes may never touch (e.g. the FFA file server).
        self.protected = frozenset(protected)
        if not known:
            raise ConfigurationError("NodeFaultPlan needs at least one topology node")

        explicit: dict[str, list[tuple[float, float]]] = {}
        for node, start, end in spec.crash_windows:
            if node not in known:
                raise ConfigurationError(
                    f"crash window ({node!r}, {start}, {end}) references an unknown "
                    f"topology node; known nodes: {sorted(known)}"
                )
            if node in self.protected:
                raise ConfigurationError(
                    f"crash window on {node!r} is not allowed: the node is "
                    "protected (the file server is assumed reliable)"
                )
            explicit.setdefault(node, []).append((start, end))
        for node, windows in explicit.items():
            validate_windows(windows, label=f"crash windows for node {node!r}")

        eligible = spec.nodes or tuple(n for n in self.nodes if n not in self.protected)
        for node in spec.nodes:
            if node not in known:
                raise ConfigurationError(
                    f"NodeFaultSpec.nodes references unknown topology node {node!r}; "
                    f"known nodes: {sorted(known)}"
                )
            if node in self.protected:
                raise ConfigurationError(
                    f"NodeFaultSpec.nodes may not include protected node {node!r}"
                )

        self._windows: dict[str, tuple[tuple[float, float], ...]] = {}
        self._starts: dict[str, list[float]] = {}
        for node in self.nodes:
            windows = list(explicit.get(node, ()))
            if spec.crash_rate_hz > 0.0 and node in eligible:
                windows.extend(self._draw_windows(node))
            merged = _merge_windows(windows)
            if merged:
                self._windows[node] = merged
                self._starts[node] = [w[0] for w in merged]

    # ------------------------------------------------------------------
    def _draw_windows(self, node: str) -> list[tuple[float, float]]:
        """Seeded crash schedule for one node: exponential inter-crash
        gaps at ``crash_rate_hz``, exponential downtimes, within the
        horizon.  Consecutive draws never overlap by construction."""
        spec = self.spec
        rng = child_rng(self.seed, f"nodefaults:{node}")
        windows: list[tuple[float, float]] = []
        t = float(rng.exponential(1.0 / spec.crash_rate_hz))
        while t < spec.horizon_s:
            down = float(rng.exponential(spec.mean_downtime_s))
            windows.append((t, t + down))
            t = t + down + float(rng.exponential(1.0 / spec.crash_rate_hz))
        return windows

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True if any node ever crashes under this plan."""
        return bool(self._windows)

    @property
    def faulty_nodes(self) -> tuple[str, ...]:
        """Nodes with at least one scheduled crash, in topology order."""
        return tuple(n for n in self.nodes if n in self._windows)

    def windows_for(self, node: str) -> tuple[tuple[float, float], ...]:
        """This node's crash windows, sorted and disjoint."""
        return self._windows.get(node, ())

    def down(self, node: str, t: float) -> bool:
        """True if ``node`` is dark at time ``t`` (inside a window)."""
        windows = self._windows.get(node)
        return windows is not None and _window_contains(windows, t)

    def first_crash_in(self, node: str, t0: float, t1: float) -> float | None:
        """Earliest crash (window start) in ``[t0, t1)``, or ``None``."""
        starts = self._starts.get(node)
        if not starts or t1 <= t0:
            return None
        i = bisect_left(starts, t0)
        if i < len(starts) and starts[i] < t1:
            return starts[i]
        return None

    def crashed_in(self, node: str, t0: float, t1: float) -> bool:
        """True if ``node`` crashed (a window *started*) in ``[t0, t1)``.

        This is the deputy-death predicate: a deputy born at ``t0`` is
        permanently gone once its node crashed at any point since.
        """
        return self.first_crash_in(node, t0, t1) is not None

    def restart_time(self, node: str, t: float) -> float:
        """End of the crash window containing ``t``.

        Raises :class:`FaultInjectionError` if the node is up at ``t``.
        """
        for start, end in self._windows.get(node, ()):
            if start <= t < end:
                return end
        raise FaultInjectionError(f"node {node!r} is not crashed at t={t}")

    def boundaries(self) -> list[tuple[float, str, bool]]:
        """Every scheduled transition as ``(time, node, is_crash)``,
        sorted by time (for event logging and chaos reports)."""
        out: list[tuple[float, str, bool]] = []
        for node, windows in self._windows.items():
            for start, end in windows:
                out.append((start, node, True))
                out.append((end, node, False))
        out.sort()
        return out
