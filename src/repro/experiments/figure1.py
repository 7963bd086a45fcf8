"""Figure 1 — the three-CPU locking comparison.

Regenerates the figure's qualitative content as a table: total time for
three successive mutually exclusive accesses, per-CPU completion times,
and per-CPU idle time, under Sesame GWC (plus its optimistic variant),
entry consistency, and weak/release consistency.

The paper's claim: "Sesame GWC is better than entry, weak, or release
consistency, for this example", with weak/release the slowest because
lock release is blocked until updates reach all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    Experiment,
    Files,
    Flag,
    PaperExpectation,
    claims_payload,
)
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.contention import ContentionConfig, run_contention

#: Systems in the order the figure presents them (optimistic added as
#: the Section 4 extension of part (a)).
FIGURE1_SYSTEMS = ("gwc", "gwc_optimistic", "entry", "release")


@dataclass(frozen=True, slots=True)
class Figure1Row:
    """One consistency model's outcome in the Figure 1 scenario."""

    system: str
    completion_time: float
    cpu1_done: float
    cpu2_done: float
    cpu3_done: float
    final_value: int


def run_figure1(
    update_time: float = 4e-6,
    cpu2_delay: float = 10e-6,
    params: MachineParams = PAPER_PARAMS,
    systems: tuple[str, ...] = FIGURE1_SYSTEMS,
) -> list[Figure1Row]:
    """Run the Figure 1 scenario under every consistency model."""
    rows = []
    for system in systems:
        result = run_contention(
            ContentionConfig(
                system=system,
                update_time=update_time,
                cpu2_delay=cpu2_delay,
                params=params,
            )
        )
        done = result.extra["done_times"]
        rows.append(
            Figure1Row(
                system=system,
                completion_time=result.extra["completion_time"],
                cpu1_done=done[0],
                cpu2_done=done[1],
                cpu3_done=done[2],
                final_value=result.extra["final_value"],
            )
        )
    return rows


def expectations(rows: list[Figure1Row]) -> list[PaperExpectation]:
    """The paper's Figure 1 ordering claims, checked against the rows."""
    by_system = {row.system: row for row in rows}
    gwc = by_system["gwc"].completion_time
    entry = by_system["entry"].completion_time
    release = by_system["release"].completion_time
    checks = [
        PaperExpectation(
            "GWC completes the three exclusive accesses before entry "
            "consistency",
            gwc < entry,
        ),
        PaperExpectation(
            "entry consistency completes before weak/release consistency",
            entry < release,
        ),
        PaperExpectation(
            "all three updates were applied under every model",
            all(row.final_value == 3 for row in rows),
        ),
    ]
    if "gwc_optimistic" in by_system:
        checks.append(
            PaperExpectation(
                "optimistic GWC is at least as fast as regular GWC",
                by_system["gwc_optimistic"].completion_time <= gwc + 1e-12,
            )
        )
    return checks


def render(rows: list[Figure1Row]) -> str:
    """The figure as a printable table (times in microseconds)."""
    return format_table(
        ["system", "total (us)", "cpu1 done", "cpu2 done", "cpu3 done"],
        [
            [
                row.system,
                row.completion_time * 1e6,
                row.cpu1_done * 1e6,
                row.cpu2_done * 1e6,
                row.cpu3_done * 1e6,
            ]
            for row in rows
        ],
        title="Figure 1: three contending critical sections (3 CPUs)",
    )


def _run(**params) -> Files:
    rows = run_figure1(**params)
    return {
        "figure1.json": {
            "rows": rows,
            "expectations": claims_payload(expectations(rows)),
        }
    }


def _microseconds(text: str) -> float:
    return float(text) * 1e-6


EXPERIMENT = Experiment(
    name="figure1",
    help="Figure 1: 3-CPU locking comparison",
    run=_run,
    render=lambda files: render(files["figure1.json"]["rows"]),
    expectations=lambda files: expectations(files["figure1.json"]["rows"]),
    flags=(
        Flag("--update-us", "update_time", _microseconds),
        Flag("--delay-us", "cpu2_delay", _microseconds),
    ),
)
