"""One round of one workload, in a fresh process.

The parent (:mod:`.harness`) spawns this module, timestamps the
``ready`` event for ``setup_s`` and reads one JSON event per line:

``ready``   after the untimed warm-up pass (imports done, caches warm)
``pass``    one per pass — wall, CPU, check failures, fingerprint
``reference`` the untimed twin comparison, when asked for
``traced``  the extra pass under ``cProfile``, folded by layer
``variant`` other ways to run the same inputs (traced run only)
``done``    peak RSS of this process and of its children
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import sys
import time
from typing import Any, Callable

from . import layers
from .workloads import WORKLOADS, Workload


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed(fn: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    # Every pass starts from the same collector state; the collector
    # itself stays on during the pass, as it is for a user.
    gc.collect()
    cpu = _cpu_s()
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    return result, {"start": start, "end": end, "wall_s": end - start, "cpu_s": _cpu_s() - cpu}


def _pass_event(kind: str, workload: Workload, result: Any, timing: dict[str, float]) -> dict[str, Any]:
    outcome = workload.outcome(result)
    return {
        "event": "pass",
        "kind": kind,
        **timing,
        "failures": outcome.failures,
        "fingerprint": outcome.fingerprint,
        "sim_time_us": outcome.sim_time_us,
    }


def _traced_event(workload: Workload) -> dict[str, Any]:
    profile = cProfile.Profile()

    def profiled() -> Any:
        profile.enable()
        try:
            return workload.run_observed()
        finally:
            profile.disable()

    (result, points), timing = _timed(profiled)
    event = _pass_event("traced_pass", workload, result, timing)
    event["event"] = "traced"
    event.update(layers.fold(pstats.Stats(profile).stats))
    for point in points:
        for metric, count in point.counts.items():
            event["counts"][metric] = event["counts"].get(metric, 0) + count
    event["points"] = [
        {"label": p.label, "start": p.start, "end": p.end} for p in points
    ]
    return event


def _variant_events(workload: Workload) -> list[dict[str, Any]]:
    from repro.errors import ReproError

    events = []
    for name, fn in workload.variants().items():
        try:
            walls = [_timed(fn)[1]["wall_s"] for _ in range(3)]
        except ReproError as exc:
            events.append({"event": "variant", "name": name, "skipped": str(exc)})
        else:
            events.append({"event": "variant", "name": name, "wall_s": min(walls)})
    return events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.layered.worker")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--reference", type=int, default=0)
    args = parser.parse_args(argv)

    # Events own the real stdout; anything the library prints goes to stderr.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(event: dict[str, Any]) -> None:
        out.write(json.dumps(event) + "\n")
        out.flush()

    workload = WORKLOADS[args.workload](args.seed, bool(args.quick))
    first, timing = _timed(workload.run)
    emit({"event": "ready"})
    emit(_pass_event("warmup", workload, first, timing))
    if args.reference:
        emit({"event": "reference", "failures": workload.reference_failures(first)})
    # No result outlives its pass: a live machine from the last pass
    # would make every collection during the next one dearer.
    del first

    deadline = time.perf_counter() + args.budget
    while True:
        result, timing = _timed(workload.run)
        emit(_pass_event("pass", workload, result, timing))
        del result
        if time.perf_counter() >= deadline:
            break

    if args.trace:
        emit(_traced_event(workload))
        for event in _variant_events(workload):
            emit(event)

    emit(
        {
            "event": "done",
            "rss_self_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rss_children_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
