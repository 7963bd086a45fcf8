"""Write-burst sensitivity: sharing traffic vs. burst size.

The Sesame hardware "transmits groups of writes atomically" — Group
Write Consistency is named for it.  The simulator's
``MachineParams.write_burst`` knob models that hardware feature: ``1``
(the paper-calibrated default) forwards every eagerly shared write as
its own origin->root packet, ``k > 1`` combines up to ``k`` consecutive
plain writes into one multi-write update, and ``0`` combines without
bound, flushing only at synchronization boundaries.

This experiment sweeps the burst size over the write-heavy producer
workload and reports the messages on the wire for each setting.  Every
run must converge to the **identical** final shared-memory state and
pass the same lock-safety checks as the unbatched baseline — combining
changes when writes become remotely visible, never what they converge
to.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.common import (
    Experiment,
    Files,
    Flag,
    PaperExpectation,
    int_tuple,
)
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.burst_writer import BurstWriterConfig, run_burst_writer

#: Default burst sizes swept (0 = unbounded).
DEFAULT_SIZES = (1, 2, 4, 8, 0)


@dataclass(frozen=True, slots=True)
class BurstRow:
    """Traffic measured at one burst size."""

    burst: int
    #: Plain one-write origin->root packets.
    update_messages: int
    #: Multi-write origin->root packets.
    burst_messages: int
    #: Their sum: every origin->root sharing message on the wire.
    origin_messages: int
    #: All messages on the wire (applies, lock traffic, everything).
    total_messages: int
    total_bytes: int
    #: Origin->root message reduction vs the burst=1 baseline.
    reduction: float
    elapsed: float


def run_burst_sweep(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    n_nodes: int = 8,
    rounds: int = 8,
    writes_per_round: int = 16,
    params: MachineParams = PAPER_PARAMS,
) -> list[BurstRow]:
    """Sweep ``write_burst`` and measure wire traffic at each size.

    Raises :class:`ExperimentError` if any run fails its correctness
    checks or diverges from the burst=1 final memory image — the sweep
    doubles as an end-to-end equivalence test.
    """
    if not sizes:
        raise ExperimentError("need at least one burst size")
    rows: list[BurstRow] = []
    reference_image = None
    baseline_origin = None
    for burst in sizes:
        config = BurstWriterConfig(
            n_nodes=n_nodes,
            rounds=rounds,
            writes_per_round=writes_per_round,
            params=dataclasses.replace(params, write_burst=burst),
        )
        result = run_burst_writer(config)
        extra = result.extra
        if not extra["acc_correct"] or not extra["image_correct"]:
            raise ExperimentError(
                f"burst={burst}: wrong final shared state "
                f"(acc={extra['final_acc']})"
            )
        if extra["pending_burst_writes"]:
            raise ExperimentError(
                f"burst={burst}: {extra['pending_burst_writes']} writes "
                "never flushed"
            )
        if reference_image is None:
            reference_image = extra["image"]
        elif extra["image"] != reference_image:
            raise ExperimentError(
                f"burst={burst}: final memory image diverges from burst=1"
            )
        origin = extra["update_messages"] + extra["burst_messages"]
        if baseline_origin is None:
            baseline_origin = origin
        rows.append(
            BurstRow(
                burst=burst,
                update_messages=extra["update_messages"],
                burst_messages=extra["burst_messages"],
                origin_messages=origin,
                total_messages=extra["total_messages"],
                total_bytes=extra["total_bytes"],
                reduction=baseline_origin / origin if origin else float("inf"),
                elapsed=result.elapsed,
            )
        )
    return rows


def render(rows: list[BurstRow]) -> str:
    return format_table(
        [
            "burst",
            "update msgs",
            "burst msgs",
            "origin msgs",
            "total msgs",
            "total bytes",
            "reduction",
        ],
        [
            [
                "unbounded" if row.burst == 0 else row.burst,
                row.update_messages,
                row.burst_messages,
                row.origin_messages,
                row.total_messages,
                row.total_bytes,
                f"{row.reduction:.2f}x",
            ]
            for row in rows
        ],
        title="Write-burst sensitivity: messages on the wire vs burst size",
    )


def _expectations(files: Files) -> list[PaperExpectation]:
    ordered = sorted(
        files["burst.csv"],
        key=lambda row: float("inf") if row.burst == 0 else row.burst,
    )
    return [
        PaperExpectation(
            "growing the burst never adds origin->root traffic",
            all(
                earlier.origin_messages >= later.origin_messages
                for earlier, later in zip(ordered, ordered[1:])
            ),
        )
    ]


EXPERIMENT = Experiment(
    name="burst",
    help="write-burst sensitivity: wire messages vs burst size",
    quick={"rounds": 4, "writes_per_round": 8},
    run=lambda **params: {"burst.csv": run_burst_sweep(**params)},
    render=lambda files: render(files["burst.csv"])
    + "\n\nevery burst size converged to the identical final shared-memory "
    "image (checked in-sweep)",
    expectations=_expectations,
    flags=(
        Flag(
            "--sizes",
            "sizes",
            int_tuple,
            "comma-separated burst sizes, 0 = unbounded (default 1,2,4,8,0)",
        ),
        Flag("--nodes", "n_nodes"),
        Flag("--rounds", "rounds", help="sync rounds per node"),
        Flag("--writes", "writes_per_round", help="plain writes per node per round"),
    ),
    csv="burst.csv",
)
