"""Figure 2 — speedup for task management vs. network size.

Regenerates the figure's three series: the zero-network-delay maximum,
Sesame GWC with eagersharing, and the "fast" entry consistency
comparator, over networks of 2^k + 1 processors.

Paper numbers at full scale: "Sesame reaches a peak speedup of 84.1 from
129 processors. ... For entry consistency, peak speedup is only 22.5
from 33 processors.  GWC gives 3.7 times faster performance."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    JOBS,
    SIZES,
    Experiment,
    Files,
    Flag,
    PaperExpectation,
    claims_payload,
    scale_preset,
)
from repro.experiments.runner import SweepExecutor
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue


#: Reduced and paper scale: networks of 2^k + 1 processors.
QUICK = {"sizes": (3, 5, 9, 17), "total_tasks": 128}
FULL = {"sizes": (3, 5, 9, 17, 33, 65, 129), "total_tasks": 1024}


@dataclass(frozen=True, slots=True)
class Figure2Row:
    """One network size's speedups across the figure's series."""

    n_nodes: int
    max_speedup: float
    gwc: float
    entry: float


def _figure2_series(config: TaskQueueConfig) -> float:
    """One series at one network size: its speedup (module-level:
    picklable)."""
    result = run_task_queue(config)
    if not result.extra["all_executed"]:
        raise AssertionError(
            f"{result.system} at n={config.n_nodes}: not all tasks executed"
        )
    return result.speedup


def run_figure2(
    sizes: tuple[int, ...] | None = None,
    total_tasks: int | None = None,
    task_time: float = 200e-6,
    produce_ratio: float = 1.0 / 128.0,
    params: MachineParams = PAPER_PARAMS,
    jobs: int | None = None,
) -> list[Figure2Row]:
    """Sweep network sizes for the GWC and entry consistency series.

    The "maximum speedup possible if network delays were zero" line is
    produced by running the same GWC workload with a zero-delay
    parameter set, exactly as the paper defines it.

    Every (network size, series) pair is an independent simulation and
    one task of a :class:`SweepExecutor`; ``jobs`` (default:
    ``REPRO_JOBS``, else every usable CPU) fans them across worker
    processes, largest network first, without changing any result.
    """
    scale = scale_preset(QUICK, FULL)
    sizes = sizes if sizes is not None else scale["sizes"]
    total_tasks = total_tasks if total_tasks is not None else scale["total_tasks"]
    configs = []
    for n_nodes in sizes:
        base = dict(
            n_nodes=n_nodes,
            total_tasks=total_tasks,
            task_time=task_time,
            produce_ratio=produce_ratio,
        )
        configs += [
            TaskQueueConfig(system="gwc", params=params.zero_delay(), **base),
            TaskQueueConfig(system="gwc", params=params, **base),
            TaskQueueConfig(system="entry", params=params, **base),
        ]
    speedups = SweepExecutor(jobs).map(
        _figure2_series, configs, cost=lambda config: config.n_nodes
    )
    return [
        Figure2Row(n_nodes, *speedups[3 * i : 3 * i + 3])
        for i, n_nodes in enumerate(sizes)
    ]


def expectations(rows: list[Figure2Row]) -> list[PaperExpectation]:
    """Figure 2's qualitative claims, checked against the sweep."""
    last = rows[-1]
    gwc_peak = max(row.gwc for row in rows)
    entry_peak = max(row.entry for row in rows)
    entry_peak_n = max(rows, key=lambda r: r.entry).n_nodes
    gwc_peak_n = max(rows, key=lambda r: r.gwc).n_nodes
    checks = [
        PaperExpectation(
            "GWC speedup stays at or below the zero-delay maximum",
            all(row.gwc <= row.max_speedup * 1.001 for row in rows),
        ),
        PaperExpectation(
            "GWC outperforms entry consistency at the largest network",
            last.gwc > last.entry,
        ),
        PaperExpectation(
            "GWC beats entry consistency at every size",
            all(row.gwc > row.entry for row in rows),
        ),
    ]
    # Entry consistency's collapse only shows once networks pass its
    # handoff-bound peak (the paper's 33); check those claims only when
    # the sweep reaches that scale.
    if rows[-1].n_nodes >= 65:
        checks.append(
            PaperExpectation(
                "GWC's peak speedup is well above entry consistency's "
                "(paper: 3.7x; shape check: >= 1.5x)",
                gwc_peak >= 1.5 * entry_peak,
            )
        )
        checks.append(
            PaperExpectation(
                "entry consistency peaks at a smaller network than GWC "
                "(paper: 33 vs 129)",
                entry_peak_n < gwc_peak_n,
            )
        )
    return checks


def render(rows: list[Figure2Row]) -> str:
    return format_table(
        ["CPUs", "max (no delay)", "Sesame GWC", "entry consistency"],
        [[row.n_nodes, row.max_speedup, row.gwc, row.entry] for row in rows],
        title="Figure 2: speedup for task management",
    )


def chart(rows: list[Figure2Row]) -> str:
    """The figure's three series as an ASCII chart (log-2 x axis)."""
    from repro.metrics.ascii_chart import render_chart

    return render_chart(
        {
            "max": [(r.n_nodes, r.max_speedup) for r in rows],
            "Sesame GWC": [(r.n_nodes, r.gwc) for r in rows],
            "entry": [(r.n_nodes, r.entry) for r in rows],
        },
        title="Figure 2: speedup for task management",
        logx=True,
    )


def _paper_scale_bands(rows: list[Figure2Row]) -> list[PaperExpectation]:
    """Paper: peaks 84.1 (GWC) vs 22.5 (entry), 3.7x; checked as bands
    once the sweep reaches the paper's 129 processors."""
    if rows[-1].n_nodes < 129:
        return []
    gwc_peak = max(row.gwc for row in rows)
    entry_peak = max(row.entry for row in rows)
    return [
        PaperExpectation(
            "GWC's peak speedup is above 45 and more than 2x entry "
            "consistency's, whose peak is in the paper's ballpark (15..35)",
            gwc_peak > 45 and gwc_peak / entry_peak > 2.0 and 15 < entry_peak < 35,
        )
    ]


def _run(**params) -> Files:
    rows = run_figure2(**params)
    return {
        "figure2.csv": rows,
        "expectations.json": claims_payload(expectations(rows)),
    }


EXPERIMENT = Experiment(
    name="figure2",
    help="Figure 2: task-management speedup sweep",
    quick=QUICK,
    full=FULL,
    run=_run,
    render=lambda files: render(files["figure2.csv"]),
    expectations=lambda files: expectations(files["figure2.csv"])
    + _paper_scale_bands(files["figure2.csv"]),
    flags=(SIZES, Flag("--tasks", "total_tasks"), JOBS),
    chart=lambda files: chart(files["figure2.csv"]),
)
