"""The layer map and the fold of a ``cProfile`` run into per-layer rows.

A layer is a set of files under ``src/repro/``.  :func:`fold` charges
every profiled function's self-time (``tottime`` — the span rule
"duration minus children") to the layer of the file that defines it.
Built-in and stdlib functions have no layer of their own: their
self-time is charged to the layer of whoever called them, followed up
the pstats caller edges until a ``repro`` frame is reached, so ``other``
holds only time that no ``repro`` frame called.
"""

from __future__ import annotations

import fnmatch
import pathlib
from typing import Any, Iterable

#: ``(layer, patterns)`` — patterns are ``fnmatch`` globs on the path
#: relative to ``src/repro``.  Every module must match exactly one
#: pattern (``test_layered`` enforces it), so a new module has to be
#: given a layer here before the benchmark accepts it.
LAYER_PATTERNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.kernel", ("sim/kernel.py", "sim/event.py")),
    (
        "sim.process",
        ("sim/process.py", "sim/waiters.py", "sim/rng.py", "sim/watchdog.py"),
    ),
    ("net.network", ("net/*.py",)),
    (
        "memory.interface",
        (
            "memory/interface.py",
            "memory/store.py",
            "memory/sharing_group.py",
            "memory/varspace.py",
            "memory/packet_filter.py",
        ),
    ),
    ("memory.partition", ("memory/repartition.py",)),
    ("consistency.gwc", ("consistency/gwc.py",)),
    (
        "consistency.entry",
        (
            "consistency/entry.py",
            "consistency/release.py",
            "consistency/sequential.py",
        ),
    ),
    ("locks", ("locks/*.py", "core/section.py")),
    ("sim.shards", ("sim/shards.py", "sim/procshards.py")),
    (
        "driver",
        (
            "workloads/*.py",
            "experiments/*.py",
            "goldens/*.py",
            "core/machine.py",
            "core/node.py",
            "consistency/base.py",
            "cli.py",
            "params.py",
            "errors.py",
        ),
    ),
    (
        "verify",
        (
            "sim/statehash.py",
            "sim/trace.py",
            "consistency/checker.py",
            "consistency/oracles.py",
            "consistency/order_probe.py",
            "metrics/*.py",
        ),
    ),
    ("faults", ("faults/*.py",)),
)

#: Package glue (``__init__`` / ``__main__``) is charged to the driver.
_GLUE = ("__init__.py", "__main__.py")

OTHER = "other"
LAYERS: tuple[str, ...] = tuple(name for name, _ in LAYER_PATTERNS) + (OTHER,)

#: Exact work counts read off the profile: metric -> (file relative to
#: ``src/repro``, function names).  Call counts repeat exactly across
#: processes, so they compare two commits without host noise.
PROFILE_COUNTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "net.network.sends": (
        "net/network.py",
        ("send", "send_fanout", "send_fanout_train"),
    ),
    "net.network.train_sends": ("net/network.py", ("send_fanout_train",)),
    "memory.interface.share_writes": ("memory/interface.py", ("share_write",)),
    "consistency.gwc.updates": (
        "consistency/gwc.py",
        ("on_update", "on_update_burst"),
    ),
    "locks.manager_writes": ("locks/gwc_lock.py", ("on_write",)),
}

#: ``sim.kernel.events`` counts ``heappop`` calls made from these frames.
_EVENT_LOOPS = ("sim/kernel.py", ("run", "run_window"))


def matching_layers(rel_path: str) -> list[str]:
    """Every layer whose patterns match ``rel_path`` (should be one)."""
    if rel_path.rsplit("/", 1)[-1] in _GLUE:
        return ["driver"]
    return [
        layer
        for layer, patterns in LAYER_PATTERNS
        for pattern in patterns
        if fnmatch.fnmatchcase(rel_path, pattern)
    ]


def source_modules(repro_dir: pathlib.Path) -> list[str]:
    """Every ``.py`` under ``src/repro`` as a ``/``-separated relative path."""
    return sorted(
        path.relative_to(repro_dir).as_posix()
        for path in repro_dir.rglob("*.py")
    )


def _rel(filename: str) -> str | None:
    """Path below ``…/repro/`` for a profiled frame, else ``None``."""
    marker = "/src/repro/"
    index = filename.rfind(marker)
    if index < 0:
        return None
    return filename[index + len(marker):]


def _caller_shares(
    stats: dict[tuple[str, int, str], tuple[Any, ...]],
    own: dict[tuple[str, int, str], str],
) -> dict[tuple[str, int, str], dict[str, float]]:
    """For each layer-less function, the layers that (transitively) call it.

    Each caller edge is weighted by the cumulative time spent under it
    (by its call count when the profile has no time at all).  Layer-less
    callers pass their own shares down, iterated to a fixed point so
    stdlib recursion (``copy.deepcopy``) settles; whatever is left
    unassigned — frames nothing in ``repro`` called — is ``other``.
    """
    edges: dict[tuple[str, int, str], list[tuple[tuple[str, int, str], float]]] = {}
    for func, row in stats.items():
        if func in own:
            continue
        callers = [(c, e) for c, e in row[4].items() if c != func and c in stats]
        column = 3 if any(e[3] > 0 for _, e in callers) else 0
        total = sum(e[column] for _, e in callers)
        edges[func] = [(c, e[column] / total) for c, e in callers] if total else []
    shares: dict[tuple[str, int, str], dict[str, float]] = {f: {} for f in edges}
    for _ in range(32):
        settled = True
        for func, callers in edges.items():
            weights: dict[str, float] = {}
            for caller, weight in callers:
                source = {own[caller]: 1.0} if caller in own else shares[caller]
                for layer, part in source.items():
                    weights[layer] = weights.get(layer, 0.0) + weight * part
            if weights != shares[func]:
                shares[func] = weights
                settled = False
        if settled:
            break
    return shares


def fold(stats: dict[tuple[str, int, str], tuple[Any, ...]]) -> dict[str, Any]:
    """Fold ``pstats.Stats(...).stats`` into per-layer rows and counts.

    Returns ``{"layers": {layer: {"self_s", "self_share", "calls"}},
    "counts": {metric: int}, "calls_total": int}``.
    """
    own: dict[tuple[str, int, str], str] = {}
    for func in stats:
        rel = _rel(func[0])
        if rel is not None:
            hits = matching_layers(rel)
            own[func] = hits[0] if hits else "driver"

    shares = _caller_shares(stats, own)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    calls_total = 0
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        calls_total += ncalls
        if func in own:
            self_s[own[func]] += tottime
            calls[own[func]] += ncalls
        else:
            calls[OTHER] += ncalls
            charged = 0.0
            for layer, part in shares[func].items():
                self_s[layer] += tottime * part
                charged += part
            self_s[OTHER] += tottime * max(0.0, 1.0 - charged)

    total_s = sum(self_s.values())
    layers = {
        layer: {
            "self_s": self_s[layer],
            "self_share": self_s[layer] / total_s if total_s else 0.0,
            "calls": calls[layer],
        }
        for layer in LAYERS
    }
    return {
        "layers": layers,
        "counts": _profile_counts(stats),
        "calls_total": calls_total,
    }


def _named(
    stats: dict[tuple[str, int, str], tuple[Any, ...]],
    rel_path: str,
    names: Iterable[str],
) -> list[tuple[str, int, str]]:
    wanted = set(names)
    return [
        func for func in stats if func[2] in wanted and _rel(func[0]) == rel_path
    ]


def _profile_counts(stats: dict[tuple[str, int, str], tuple[Any, ...]]) -> dict[str, int]:
    counts = {
        metric: sum(stats[func][1] for func in _named(stats, rel, names))
        for metric, (rel, names) in PROFILE_COUNTS.items()
    }
    loops = set(_named(stats, *_EVENT_LOOPS))
    counts["sim.kernel.events"] = sum(
        edge[0]
        for func, row in stats.items()
        if "heappop" in func[2] and func[0] == "~"
        for caller, edge in row[4].items()
        if caller in loops
    )
    return counts
