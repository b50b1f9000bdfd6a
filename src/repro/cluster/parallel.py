"""Deterministic multiprocessing fan-out for scenario sweeps.

Every sweep in this repo — the figure matrix, the golden-trace scenario
matrix, ablation grids — is a list of *fully pinned, independent* runs:
each cell fixes its own seed, workload, and config, and no cell reads
another's output.  That makes them trivially parallel, and because each
worker computes exactly what the sequential loop would have computed (same
seeds, same float ops), fanning out changes wall time only, never results.

:func:`parallel_map` is the one primitive: ``map(fn, items)`` across a
process pool with the *input* ordering of results guaranteed.  It degrades
to a plain sequential loop when parallelism is disabled (``jobs=1``),
pointless (one item), or unavailable (no ``fork`` start method — the
workers inherit the parent's imported modules for free under ``fork``, and
we refuse to pay the re-import cost of ``spawn`` for what is purely an
optimization).  Only whole runs fan out: one scenario always runs
sequentially in one process.

Library entry points default to **sequential** (``jobs=None`` resolves via
the ``REPRO_JOBS`` environment variable, else 1) so importing code never
forks behind a caller's back; the CLI passes ``--jobs auto`` where a sweep
is the whole command.
"""

from __future__ import annotations

import os
from multiprocessing import get_context
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | str | None, limit: int | None = None) -> int:
    """Normalize a jobs request to a worker count (>= 1).

    ``None`` reads :data:`JOBS_ENV` (empty means 1 — sequential); the
    string ``"auto"`` (or a non-positive count) means one worker per CPU.
    ``limit`` clamps the result to the number of work items so library
    callers can pass ``"auto"`` without over-forking:
    ``resolve_jobs("auto", limit=len(items))``.
    """
    if jobs is None:
        env_value = os.environ.get(JOBS_ENV, "").strip()
        if not env_value:
            return 1
        jobs = env_value
    if isinstance(jobs, str):
        jobs = -1 if jobs.lower() == "auto" else int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if limit is not None:
        jobs = min(jobs, max(limit, 1))
    return jobs


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | str | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` across a worker pool, results in input order.

    ``fn`` and every item must be picklable (a module-level function and
    plain data).  Results are returned in the order of ``items`` no matter
    which worker finishes first, so a parallel sweep is a drop-in
    replacement for the sequential loop.  The first worker exception
    propagates to the caller, as the sequential loop's would.
    """
    items = list(items)
    n_workers = resolve_jobs(jobs, limit=len(items))
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        ctx = get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return [fn(item) for item in items]
    with ctx.Pool(processes=n_workers) as pool:
        # chunksize=1: scenario cells are coarse (milliseconds to seconds),
        # so per-task dispatch overhead is noise and the smallest chunks
        # give the best load balance across unequal cells.
        return pool.map(fn, items, chunksize=1)


__all__ = [
    "JOBS_ENV",
    "parallel_map",
    "resolve_jobs",
]
