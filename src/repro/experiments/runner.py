"""Parallel execution of independent simulation sweep points.

Every experiment sweep in this repo is embarrassingly parallel: each
(network size, protocol, parameter) point builds its own machine from a
fixed seed and shares nothing with its neighbours.  The
:class:`SweepExecutor` fans such points across ``multiprocessing``
workers — by default one per usable CPU — while keeping the results
**deterministic**: results come back in submission order, and each
point's simulation is bit-identical to a serial run because all
randomness is derived from the point's own seed.

Usage::

    executor = SweepExecutor()                # or jobs=N; None -> REPRO_JOBS
    rows = executor.map(_point_fn, points, cost=lambda p: p.n_nodes)

Worker functions must be module-level (picklable) and take exactly one
argument (pack tuples/dataclasses as needed).  Each point is one task;
``cost`` is a scheduling hint only: the most expensive points are
dispatched first, so the largest network does not start last and run
alone.  The executor degrades to a plain serial loop in submission
order, with zero multiprocessing overhead, when

* ``jobs <= 1`` (``--jobs 1`` / ``REPRO_JOBS=1``) or there is one point;
* a profiler, tracer or debugger is active (cProfile, coverage, pdb):
  it sees only its own process, so the sweep stays in it;
* the caller is itself a daemonic process (a ``multiprocessing.Pool``
  worker), which may not have children;
* no pool can be created (sandboxed interpreters without
  ``fork``/semaphores).

The last two print a one-line ``[sweep]`` notice on stderr.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Any, Callable, Iterable, TypeVar

from repro.errors import ExperimentError

#: Environment variable selecting the default worker count.
JOBS_ENV = "REPRO_JOBS"

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set, not the host's)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``; absent or empty -> usable CPUs."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return usable_cpus()
    try:
        jobs = int(raw)
    except ValueError:
        raise ExperimentError(
            f"{JOBS_ENV} must be an integer, got {raw!r}"
        ) from None
    return max(1, jobs)


def _observed() -> bool:
    """Whether a profiler, tracer or debugger watches this process."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python >= 3.12
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None
        for tool in (
            monitoring.DEBUGGER_ID,
            monitoring.COVERAGE_ID,
            monitoring.PROFILER_ID,
        )
    )


class SweepExecutor:
    """Maps a function over independent sweep points, possibly in parallel.

    Args:
        jobs: Worker process count.  ``None`` reads ``REPRO_JOBS`` and
            defaults to the usable CPUs when it is unset; values below
            2 mean serial execution in-process.
    """

    def __init__(self, jobs: int | None = None) -> None:
        requested = default_jobs() if jobs is None else max(1, int(jobs))
        available = usable_cpus()
        if requested > available:
            # More workers than CPUs never helps these CPU-bound sweeps
            # (forked workers just time-slice); say so once instead of
            # silently over- or under-delivering.
            self._notice(
                f"requested {requested} jobs but only {available} CPU(s) "
                f"available; running {available}"
            )
            requested = available
        self.jobs = requested

    def __repr__(self) -> str:
        return f"SweepExecutor(jobs={self.jobs})"

    @staticmethod
    def _notice(message: str) -> None:
        print(f"[sweep] {message}", file=sys.stderr)

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        cost: Callable[[T], float] | None = None,
    ) -> list[R]:
        """``[fn(item) for item in items]``, fanned across workers.

        Result order always matches ``items`` order, so parallel output
        is byte-identical to serial output for deterministic ``fn``.
        ``cost`` orders dispatch only (most expensive first, ties in
        submission order); it never changes a result.
        """
        points = list(items)
        workers = min(self.jobs, len(points))
        if workers <= 1 or _observed():
            return [fn(item) for item in points]
        if multiprocessing.current_process().daemon:
            return self._serial(fn, points, "inside a daemonic process")
        order = list(range(len(points)))
        if cost is not None:
            # A stable sort: equal costs keep their submission order.
            order.sort(key=lambda i: cost(points[i]), reverse=True)
        try:
            with self._context().Pool(processes=workers) as pool:
                done = pool.map(fn, [points[i] for i in order], chunksize=1)
        except (OSError, PermissionError) as exc:
            # No usable multiprocessing primitives in this environment.
            return self._serial(
                fn, points, f"multiprocessing unavailable ({exc.__class__.__name__})"
            )
        results: list[Any] = [None] * len(points)
        for i, result in zip(order, done):
            results[i] = result
        return results

    def _serial(self, fn: Callable[[T], R], points: list[T], why: str) -> list[R]:
        """The serial fallback — never silent (the jobs-N-slower-than-
        serial footgun)."""
        self._notice(f"{why}; running {len(points)} point(s) serially")
        return [fn(item) for item in points]

    @staticmethod
    def _context() -> Any:
        """Prefer fork (cheap, inherits the warmed interpreter)."""
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()
