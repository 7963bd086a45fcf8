"""Figure 8 — mutex methods: network power vs. number of CPUs.

Regenerates the figure's four series on the linear-pipeline workload:

1. the zero-delay maximum (1.89 for 2+ CPUs at a 1/8 mutex ratio),
2. optimistic GWC locking (paper: 1.68 @ 2 CPUs, 1.15 @ 128),
3. regular (non-optimistic) GWC locking (paper: 1.53 @ 2, 1.03 @ 128),
4. entry consistency (paper: 0.81 @ 2, 0.64 @ 128).

Summary claims: "execution with optimistic synchronization can be 1.1
times faster than with non-optimistic locking under group write
consistency and 2.1 times faster than with entry consistency."
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
)
from repro.experiments.runner import SweepExecutor
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.pipeline import PipelineConfig, run_pipeline


#: Reduced and paper scale: powers of two, 2..128.
QUICK = {"sizes": (2, 4, 8, 16), "data_size": 128}
FULL = {"sizes": (2, 4, 8, 16, 32, 64, 128), "data_size": 1024}


@dataclass(frozen=True, slots=True)
class Figure8Row:
    """One network size's power across the figure's series."""

    n_nodes: int
    max_power: float
    optimistic: float
    gwc: float
    entry: float
    rollbacks: int


def _figure8_series(config: PipelineConfig) -> tuple[float, int]:
    """One series at one network size: its power and rollback count
    (module-level: picklable)."""
    result = run_pipeline(config)
    if not result.extra["acc_correct"]:
        raise AssertionError(
            f"{result.system} at n={config.n_nodes}: wrong accumulator value"
        )
    return result.speedup, result.extra["rollbacks"]


def run_figure8(
    sizes: tuple[int, ...] = QUICK["sizes"],
    data_size: int = QUICK["data_size"],
    local_time: float = 10e-6,
    mutex_ratio: float = 8.0,
    item_bytes: int = 64,
    block_bytes: int = 64,
    params: MachineParams = PAPER_PARAMS,
    jobs: int | None = None,
) -> list[Figure8Row]:
    """Sweep network sizes for the four Figure 8 series.

    Every (network size, series) pair is an independent simulation and
    one task of a :class:`SweepExecutor`; ``jobs`` (default:
    ``REPRO_JOBS``, else every usable CPU) fans them across worker
    processes, largest network first, without changing any result.
    """
    configs = []
    for n_nodes in sizes:
        base = dict(
            n_nodes=n_nodes,
            data_size=data_size,
            local_time=local_time,
            mutex_ratio=mutex_ratio,
            item_bytes=item_bytes,
            block_bytes=block_bytes,
        )
        configs += [
            PipelineConfig(system="gwc", params=params.zero_delay(), **base),
            PipelineConfig(system="gwc_optimistic", params=params, **base),
            PipelineConfig(system="gwc", params=params, **base),
            PipelineConfig(system="entry", params=params, **base),
        ]
    series = SweepExecutor(jobs).map(
        _figure8_series, configs, cost=lambda config: config.n_nodes
    )
    rows = []
    for i, n_nodes in enumerate(sizes):
        ideal, optimistic, gwc, entry = series[4 * i : 4 * i + 4]
        rows.append(
            Figure8Row(
                n_nodes=n_nodes,
                max_power=ideal[0],
                optimistic=optimistic[0],
                gwc=gwc[0],
                entry=entry[0],
                rollbacks=optimistic[1],
            )
        )
    return rows


def expectations(rows: list[Figure8Row]) -> list[PaperExpectation]:
    """Figure 8's qualitative claims, checked against the sweep."""
    first, last = rows[0], rows[-1]
    checks = [
        PaperExpectation(
            "the zero-delay maximum is about 1.89 at every size",
            all(abs(row.max_power - 1.89) < 0.08 for row in rows),
        ),
        PaperExpectation(
            "optimistic > non-optimistic GWC > entry at every size",
            all(row.optimistic > row.gwc > row.entry for row in rows),
        ),
        PaperExpectation(
            "no rollbacks occur (the pipeline has no lock contention)",
            all(row.rollbacks == 0 for row in rows),
        ),
        PaperExpectation(
            "optimistic over non-optimistic is about 1.1x at 2 CPUs "
            f"(measured {first.optimistic / first.gwc:.2f})",
            1.0 < first.optimistic / first.gwc < 1.35,
        ),
        PaperExpectation(
            "optimistic over entry is about 2.1x at 2 CPUs "
            f"(measured {first.optimistic / first.entry:.2f})",
            first.optimistic / first.entry > 1.4,
        ),
        PaperExpectation(
            "power declines as the network grows (longer lock trips)",
            last.optimistic < first.optimistic and last.gwc < first.gwc,
        ),
    ]
    return checks


def render(rows: list[Figure8Row]) -> str:
    return format_table(
        ["CPUs", "max (no delay)", "optimistic", "non-opt GWC", "entry"],
        [
            [row.n_nodes, row.max_power, row.optimistic, row.gwc, row.entry]
            for row in rows
        ],
        title="Figure 8: mutex methods (network power in CPUs)",
    )


def chart(rows: list[Figure8Row]) -> str:
    """The figure's four series as an ASCII chart (log-2 x axis)."""
    from repro.metrics.ascii_chart import render_chart

    return render_chart(
        {
            "max": [(r.n_nodes, r.max_power) for r in rows],
            "optimistic": [(r.n_nodes, r.optimistic) for r in rows],
            "non-opt GWC": [(r.n_nodes, r.gwc) for r in rows],
            "entry": [(r.n_nodes, r.entry) for r in rows],
        },
        title="Figure 8: mutex methods (network power in CPUs)",
        logx=True,
    )


def _paper_scale_bands(rows: list[Figure8Row]) -> list[PaperExpectation]:
    """Paper end points at 2 CPUs: optimistic 1.68, GWC 1.53, entry 0.81.
    Bands keep the shape without demanding the authors' exact cost
    constants; checked once the sweep spans the paper's 2..128 CPUs."""
    first = rows[0]
    if first.n_nodes != 2 or rows[-1].n_nodes < 128:
        return []
    return [
        PaperExpectation(
            "at 2 CPUs optimistic is in 1.5..1.8, non-optimistic GWC in "
            "1.4..1.7 and entry below 1.0",
            1.5 < first.optimistic < 1.8
            and 1.4 < first.gwc < 1.7
            and first.entry < 1.0,
        )
    ]


def _checks(rows: list[Figure8Row]) -> list[PaperExpectation]:
    """Every claim a sweep is checked against: its paper-scale bands too."""
    return expectations(rows) + _paper_scale_bands(rows)


def _run(**params) -> Files:
    rows = run_figure8(**params)
    return {"figure8.csv": rows, "expectations.json": claims_payload(_checks(rows))}


EXPERIMENT = Experiment(
    name="figure8",
    help="Figure 8: mutex methods on the pipeline",
    quick=QUICK,
    full=FULL,
    run=_run,
    render=lambda files: render(files["figure8.csv"]),
    expectations=lambda files: _checks(files["figure8.csv"]),
    flags=(SIZES, Flag("--data", "data_size"), JOBS),
    chart=lambda files: chart(files["figure8.csv"]),
)
