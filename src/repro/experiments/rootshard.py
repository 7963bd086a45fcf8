"""Root-sharding sweep: serial-vs-sharded parity and per-root load.

A Figure-8-class network-size sweep for the sharded-root sequencer
(PR 10).  Each point runs the :mod:`repro.workloads.rootshard` workload
twice on the same machine shape and seed:

1. **serial baseline** — one root sequences the whole family, and
2. **sharded** — ``roots`` partitions (optionally with hierarchical
   relay multicast), re-partitioning online once the injected hot key
   has skewed the observed per-root load.

The parity bar is the semantic shared-state hash
(:func:`repro.sim.statehash.shared_state_hash`): both runs must drive
every member to the same final value for every variable and return
every lock to FREE.  The load bar is the acceptance criterion from the
issue: after the online re-partition, the hottest root's sequenced-
write share stays within 2x the mean root's share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import WorkloadError
from repro.experiments.common import (
    JOBS,
    SIZES,
    Experiment,
    Files,
    Flag,
    PaperExpectation,
)
from repro.experiments.runner import SweepExecutor
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.rootshard import RootShardConfig, run_rootshard

#: Acceptance bar: hottest root <= 2x the mean root, post-rebalance.
MAX_OVER_MEAN_BAR = 2.0

QUICK = {"sizes": (16, 64, 128)}
FULL = {"sizes": (16, 64, 256, 1024)}


@dataclass(frozen=True, slots=True)
class RootShardRow:
    """One network size's serial-vs-sharded comparison."""

    n_nodes: int
    roots: int
    fanout: int | None
    parity: bool
    serial_hash: str
    sharded_hash: str
    load_before: tuple[int, ...]
    load_after: tuple[int, ...]
    #: max-root share over mean-root share, measured after the online
    #: re-partition (the < 2.0 acceptance bar); 0.0 when not rebalanced.
    max_over_mean_after: float
    migration_moves: int
    locks_transferred: int
    migration_discards: int
    relayed_applies: int
    serial_elapsed: float
    sharded_elapsed: float


def point_config(
    n_nodes: int,
    roots: int,
    fanout: int | None,
    seed: int,
    topology: str,
    params: MachineParams,
    rebalance: bool = True,
) -> RootShardConfig:
    """The per-point workload shape, constant across network sizes.

    The write counts do not scale with ``n_nodes`` — the member count
    itself scales the multicast cost, which is what the sweep measures.
    The hot key writes at ~8x the cold rate for the same wall-clock
    span, so observed per-unit load is stationary and LPT re-planning
    from it predicts the residual load it is balancing.
    """
    return RootShardConfig(
        n_nodes=n_nodes,
        roots=roots,
        fanout=fanout,
        hot_rounds=320,
        hot_think=5e-7,
        cold_units=16,
        cold_rounds=40,
        think_time=4e-6,
        n_locks=4,
        n_lockers=min(16, n_nodes),
        increments=4,
        rebalance=rebalance,
        rebalance_frac=0.35,
        seed=seed,
        topology=topology,
        params=params,
    )


def _rootshard_point(
    point: tuple[int, int, "int | None", int, str, MachineParams, bool]
) -> RootShardRow:
    """One network size, serial then sharded (module-level: picklable)."""
    n_nodes, roots, fanout, seed, topology, params, rebalance = point
    serial = run_rootshard(
        point_config(
            n_nodes, 1, None, seed, topology, params, rebalance=False
        )
    )
    sharded = run_rootshard(
        point_config(
            n_nodes, roots, fanout, seed, topology, params,
            rebalance=rebalance,
        )
    )
    for result in (serial, sharded):
        if not result.extra["correct"]:
            raise WorkloadError(
                f"rootshard at n={n_nodes} roots={result.extra['roots']}: "
                "wrong final values"
            )
    ratio = sharded.extra["max_over_mean_after"]
    return RootShardRow(
        n_nodes=n_nodes,
        roots=roots,
        fanout=fanout,
        parity=serial.extra["shared_hash"] == sharded.extra["shared_hash"],
        serial_hash=serial.extra["shared_hash"],
        sharded_hash=sharded.extra["shared_hash"],
        load_before=tuple(sharded.extra["load_before"] or ()),
        load_after=tuple(sharded.extra["load_after"] or ()),
        max_over_mean_after=ratio if ratio is not None else 0.0,
        migration_moves=len(sharded.extra["migration_moves"] or {}),
        locks_transferred=sharded.extra["locks_transferred"],
        migration_discards=sharded.extra["migration_discards"],
        relayed_applies=sharded.extra["relayed_applies"],
        serial_elapsed=serial.elapsed,
        sharded_elapsed=sharded.elapsed,
    )


def run_rootshard_sweep(
    sizes: tuple[int, ...] = FULL["sizes"],
    roots: int = 4,
    fanout: int | None = 8,
    seed: int = 0,
    topology: str = "mesh_torus",
    params: MachineParams = PAPER_PARAMS,
    rebalance: bool = True,
    jobs: int | None = None,
) -> list[RootShardRow]:
    """Sweep network sizes; each point is serial baseline vs sharded.

    ``jobs`` (default: ``REPRO_JOBS``, else every usable CPU) fans the
    points across worker processes, largest network first, without
    changing any result.
    """
    points = [
        (n_nodes, roots, fanout, seed, topology, params, rebalance)
        for n_nodes in sizes
    ]
    return SweepExecutor(jobs).map(
        _rootshard_point, points, cost=lambda point: point[0]  # n_nodes
    )


def expectations(rows: list[RootShardRow]) -> list[PaperExpectation]:
    """The sweep's acceptance claims, checked against the rows."""
    rebalanced = [row for row in rows if row.load_after]
    checks = [
        PaperExpectation(
            "sharded final state matches the serial baseline at every size",
            all(row.parity for row in rows),
        ),
        PaperExpectation(
            "every run returned its locks to FREE with correct finals "
            "(enforced per point)",
            True,
        ),
        PaperExpectation(
            "online re-partitioning moved the hot unit at every "
            "rebalanced point",
            all(row.migration_moves > 0 for row in rebalanced),
        ),
        PaperExpectation(
            "post-rebalance max-root share <= 2x mean-root share "
            + str([round(row.max_over_mean_after, 2) for row in rebalanced]),
            all(
                row.max_over_mean_after <= MAX_OVER_MEAN_BAR
                for row in rebalanced
            ),
        ),
    ]
    if any(row.fanout is not None for row in rows):
        checks.append(
            PaperExpectation(
                "hierarchical multicast relayed applies at every "
                "tree-mode point",
                all(
                    row.relayed_applies > 0
                    for row in rows
                    if row.fanout is not None and row.n_nodes > 2
                ),
            )
        )
    return checks


def render(rows: list[RootShardRow]) -> str:
    return format_table(
        [
            "CPUs",
            "roots",
            "fanout",
            "parity",
            "max/mean after",
            "moves",
            "relayed",
        ],
        [
            [
                row.n_nodes,
                row.roots,
                row.fanout if row.fanout is not None else "direct",
                "yes" if row.parity else "NO",
                round(row.max_over_mean_after, 3),
                row.migration_moves,
                row.relayed_applies,
            ]
            for row in rows
        ],
        title="Sharded roots: serial parity and per-root load",
    )


def _render(files: Files) -> str:
    rows = files["rootshard.csv"]
    return "\n".join(
        [render(rows), ""]
        + [
            f"  n={row.n_nodes}: per-root load after re-partition "
            f"{row.load_after} (before fence: {row.load_before})"
            for row in rows
            if row.load_after
        ]
    )


EXPERIMENT = Experiment(
    name="rootshard",
    help="sharded group roots: serial parity + per-root load sweep",
    quick=QUICK,
    full=FULL,
    run=lambda **params: {"rootshard.csv": run_rootshard_sweep(**params)},
    render=_render,
    expectations=lambda files: expectations(files["rootshard.csv"]),
    flags=(
        SIZES,
        Flag("--roots", "roots", help="root partitions per group (default 4)"),
        Flag(
            "--fanout",
            "fanout",
            lambda text: int(text) or None,
            "relay-tree fanout for hierarchical multicast (default 8); "
            "0 = direct",
        ),
        Flag("--seed", "seed"),
        Flag(
            "--no-rebalance",
            "rebalance",
            const=False,
            help="skip the online re-partition of the injected hot key",
        ),
        JOBS,
    ),
)


#: The small pinned workload every parity layout runs.
_PARITY_BASE = RootShardConfig(
    n_nodes=16,
    roots=1,
    cold_units=4,
    cold_rounds=8,
    n_lockers=6,
    increments=4,
    rebalance_frac=0.35,
)


def run_layout_parity(
    layouts: tuple[tuple[int, "int | None", bool, int], ...]
) -> Files:
    """Serial-parity hashes plus handoff counters, one record per layout.

    Every ``(roots, fanout, rebalance, partition_seed)`` layout — with
    and without relay trees, with an online re-partition mid-run — must
    converge to the byte-identical serial-baseline state.  The handoff
    counters (moves, transferred locks, epoch restarts) are deterministic
    per seed, so drift in the fence or migration order shows up here
    before any sweep does.
    """
    serial_hash = run_rootshard(_PARITY_BASE).extra["shared_hash"]
    records = []
    for roots, fanout, rebalance, partition_seed in layouts:
        config = replace(
            _PARITY_BASE,
            roots=roots,
            fanout=fanout,
            rebalance=rebalance,
            partition_seed=partition_seed,
        )
        extra = run_rootshard(config).extra
        records.append(
            {
                "seed": config.seed,
                "partition_seed": partition_seed,
                "topology": config.topology,
                "n_nodes": config.n_nodes,
                "roots": roots,
                "fanout": fanout,
                "rebalance": rebalance,
                "serial_hash": serial_hash,
                "sharded_hash": extra["shared_hash"],
                "parity": extra["shared_hash"] == serial_hash,
                "correct": extra["correct"],
                "load_total": list(extra["load_total"]),
                "migration_moves": len(extra["migration_moves"] or ()),
                "locks_transferred": extra["locks_transferred"],
                "relayed_applies": extra["relayed_applies"],
                "epoch_restarts": extra["epoch_restarts"],
            }
        )
    return {"sharded_root.json": {"records": records}}


def _parity_expectations(files: Files) -> list[PaperExpectation]:
    records = files["sharded_root.json"]["records"]
    return [
        PaperExpectation(
            "every root layout converges to the serial run's shared state "
            "with correct finals",
            all(r["parity"] and r["correct"] for r in records),
        ),
        PaperExpectation(
            "the rebalance point migrated units and handed a lock between "
            "two live roots (the handoff golden is not vacuous)",
            any(
                r["rebalance"] and r["migration_moves"] > 0 and r["locks_transferred"]
                for r in records
            ),
        ),
    ]


SHARDED_ROOT = Experiment(
    name="sharded_root",
    help="sharded-root serial-parity hashes + handoff counters",
    # (roots, fanout, rebalance, partition seed).  The last layout's
    # partition seed deliberately lands the hot key on a crowded root so
    # the mid-run rebalance provably migrates units (including a lock
    # handoff between two live roots).
    quick={
        "layouts": (
            (2, None, False, 0),
            (4, None, False, 0),
            (4, 3, False, 0),
            (4, 3, True, 1),
        )
    },
    run=run_layout_parity,
    expectations=_parity_expectations,
)
