"""Ablations for the design choices DESIGN.md calls out.

* :func:`run_threshold_sweep` (A1) — how the optimism threshold trades
  rollback waste against hidden lock latency, under low and high
  contention.  The paper's example threshold is 0.30.
* :func:`run_echo_blocking_ablation` (A2) — what goes wrong without the
  Figure 6 hardware blocking filter (see
  :func:`repro.workloads.scenarios.run_double_write`).
* :func:`run_lock_protocol_shootout` (A3) — all registered consistency
  systems on the shared-counter kernel.
* :func:`run_force_modes` — forcing the optimistic runner always-on /
  always-off isolates the value of the usage-frequency history.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import JOBS, Experiment, Files, PaperExpectation
from repro.experiments.runner import SweepExecutor
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.counter import CounterConfig, run_counter
from repro.workloads.scenarios import DoubleWriteConfig, run_double_write


@dataclass(frozen=True, slots=True)
class ThresholdRow:
    """One optimism threshold's outcome under a given contention level."""

    threshold: float
    think_time: float
    elapsed: float
    attempts: int
    successes: int
    rollbacks: int
    regular: int
    wasted: float


def _threshold_point(
    point: tuple[float, float, int, int, MachineParams],
) -> ThresholdRow:
    """One (think_time, threshold) cell (module-level: picklable)."""
    think, threshold, n_nodes, increments_per_node, params = point
    result = run_counter(
        CounterConfig(
            system="gwc_optimistic",
            n_nodes=n_nodes,
            increments_per_node=increments_per_node,
            think_time=think,
            params=params,
            threshold=threshold,
        )
    )
    assert result.extra["correct"], "counter lost updates"
    return ThresholdRow(
        threshold=threshold,
        think_time=think,
        elapsed=result.elapsed,
        attempts=result.counter("opt.attempts"),
        successes=result.counter("opt.successes"),
        rollbacks=result.counter("opt.rollbacks"),
        regular=result.counter("opt.regular_path"),
        wasted=result.metrics.total_wasted(),
    )


def run_threshold_sweep(
    thresholds: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.9, 1.0),
    think_times: tuple[float, ...] = (2e-6, 50e-6),
    n_nodes: int = 6,
    increments_per_node: int = 16,
    params: MachineParams = PAPER_PARAMS,
    jobs: int | None = None,
) -> list[ThresholdRow]:
    """A1: sweep the optimism threshold under two contention levels.

    Small ``think_time`` means heavy contention (optimism should be
    suppressed by the history); large means light contention (optimism
    should win).  Threshold 0.0 forces every request down the regular
    path once any usage has ever been seen; 1.0 never suppresses.
    """
    points = [
        (think, threshold, n_nodes, increments_per_node, params)
        for think in think_times
        for threshold in thresholds
    ]
    return SweepExecutor(jobs).map(
        _threshold_point, points, cost=lambda point: point[2]  # n_nodes
    )


def render_threshold(rows: list[ThresholdRow]) -> str:
    return format_table(
        [
            "think (us)",
            "threshold",
            "elapsed (us)",
            "attempts",
            "successes",
            "rollbacks",
            "regular",
            "wasted (us)",
        ],
        [
            [
                row.think_time * 1e6,
                row.threshold,
                row.elapsed * 1e6,
                row.attempts,
                row.successes,
                row.rollbacks,
                row.regular,
                row.wasted * 1e6,
            ]
            for row in rows
        ],
        title="Ablation A1: optimism threshold sweep",
    )


@dataclass(frozen=True, slots=True)
class ShootoutRow:
    """One lock protocol / consistency system on the counter kernel."""

    system: str
    elapsed: float
    correct: bool
    remote_attempts: int


def _protocol_point(point: tuple[str, int, int, float, MachineParams]) -> ShootoutRow:
    """One consistency system's counter run (module-level: picklable)."""
    system, n_nodes, increments_per_node, think_time, params = point
    result = run_counter(
        CounterConfig(
            system=system,
            n_nodes=n_nodes,
            increments_per_node=increments_per_node,
            think_time=think_time,
            params=params,
        )
    )
    return ShootoutRow(
        system=system,
        elapsed=result.elapsed,
        correct=result.extra["correct"],
        remote_attempts=0,
    )


def run_lock_protocol_shootout(
    systems: tuple[str, ...] = ("gwc", "gwc_optimistic", "entry", "release"),
    n_nodes: int = 8,
    increments_per_node: int = 8,
    think_time: float = 20e-6,
    params: MachineParams = PAPER_PARAMS,
    jobs: int | None = None,
) -> list[ShootoutRow]:
    """A3a: every consistency system runs the same counter kernel."""
    points = [
        (system, n_nodes, increments_per_node, think_time, params)
        for system in systems
    ]
    return SweepExecutor(jobs).map(
        _protocol_point, points, cost=lambda point: point[1]  # n_nodes
    )


def _primitive_point(point: tuple[str, int, int, float, MachineParams]) -> ShootoutRow:
    """One lock primitive's bench run (module-level: picklable)."""
    from repro.workloads.lock_bench import LockBenchConfig, run_lock_bench

    protocol, n_nodes, increments_per_node, think_time, params = point
    result = run_lock_bench(
        LockBenchConfig(
            protocol=protocol,
            n_nodes=n_nodes,
            increments_per_node=increments_per_node,
            think_time=think_time,
            params=params,
        )
    )
    return ShootoutRow(
        system=protocol,
        elapsed=result.elapsed,
        correct=result.extra["correct"],
        remote_attempts=result.extra.get("remote_attempts", 0),
    )


def run_lock_primitive_shootout(
    n_nodes: int = 6,
    increments_per_node: int = 8,
    think_time: float = 10e-6,
    params: MachineParams = PAPER_PARAMS,
    jobs: int | None = None,
) -> list[ShootoutRow]:
    """A3b: the paper's locks vs. the cited TAS/TTAS/MCS baselines."""
    from repro.workloads.lock_bench import PROTOCOLS

    points = [
        (protocol, n_nodes, increments_per_node, think_time, params)
        for protocol in PROTOCOLS
    ]
    return SweepExecutor(jobs).map(
        _primitive_point, points, cost=lambda point: point[1]  # n_nodes
    )


def render_shootout(rows: list[ShootoutRow]) -> str:
    return format_table(
        ["protocol", "elapsed (us)", "correct", "remote attempts"],
        [
            [row.system, row.elapsed * 1e6, row.correct, row.remote_attempts]
            for row in rows
        ],
        title="Ablation A3: lock protocol shoot-out (counter kernel)",
    )


def run_echo_blocking_ablation(rounds: int = 6, n_nodes: int = 8):
    """A2: the double-write hazard with and without the Figure 6 filter.

    Returns ``(with_filter, without_filter)`` workload results; the
    filtered run must be correct, and the unfiltered run demonstrates
    the corruption the paper's hardware blocking mechanism prevents
    (or, at minimum, that the filter is load-bearing: it drops echoes).
    """
    with_filter = run_double_write(
        DoubleWriteConfig(rounds=rounds, n_nodes=n_nodes, echo_blocking=True)
    )
    without_filter = run_double_write(
        DoubleWriteConfig(rounds=rounds, n_nodes=n_nodes, echo_blocking=False)
    )
    return with_filter, without_filter


def run_force_modes(
    n_nodes: int = 6,
    increments_per_node: int = 12,
    think_time: float = 4e-6,
    params: MachineParams = PAPER_PARAMS,
):
    """History value: adaptive vs always-optimistic vs always-regular.

    Under contention, always-optimistic wastes work on rollbacks and
    always-regular hides nothing; the history should land near the
    better of the two.  Returns ``{mode: WorkloadResult}``.
    """
    from repro.workloads.base import build_machine, finish
    from repro.workloads.counter import COUNTER, GROUP, LOCK, _increment_body, _worker
    from repro.core.section import Section

    results = {}
    for mode in ("adaptive", "optimistic", "regular"):
        force = None if mode == "adaptive" else mode
        machine, system = build_machine(
            "gwc_optimistic", n_nodes, params=params, force=force
        )
        machine.create_group(GROUP)
        machine.declare_variable(GROUP, COUNTER, 0, mutex_lock=LOCK)
        machine.declare_lock(GROUP, LOCK, protects=(COUNTER,))
        section = Section(
            lock=LOCK,
            body=_increment_body,
            shared_reads=(COUNTER,),
            shared_writes=(COUNTER,),
        )
        config = CounterConfig(
            system="gwc_optimistic",
            n_nodes=n_nodes,
            increments_per_node=increments_per_node,
            think_time=think_time,
            params=params,
        )
        for node in machine.nodes:
            node.locals["_update_time"] = config.update_time
            node.locals["_checker"] = machine.checker
            machine.spawn(
                _worker(node, system, config, section), name=f"force-{node.id}"
            )
        results[mode] = finish(machine, system)
        if machine.checker is not None:
            machine.checker.verify_chain(COUNTER, 0)
    return results


def _run(think_times: tuple[float, ...], jobs: int | None = None) -> Files:
    echo = dict(zip(("with_filter", "without_filter"), run_echo_blocking_ablation()))
    return {
        "threshold.csv": run_threshold_sweep(think_times=think_times, jobs=jobs),
        "lock_protocols.csv": run_lock_protocol_shootout(jobs=jobs),
        "lock_primitives.csv": run_lock_primitive_shootout(jobs=jobs),
        "echo_blocking.json": {
            label: {key: result.extra[key] for key in ("correct", "chain_ok")}
            for label, result in echo.items()
        },
    }


def _render(files: Files) -> str:
    echo = files["echo_blocking.json"]
    return "\n\n".join(
        (
            render_threshold(files["threshold.csv"]),
            render_shootout(files["lock_protocols.csv"]),
            render_shootout(files["lock_primitives.csv"]),
            format_table(
                ["echo blocking", "correct", "chain intact"],
                [
                    ["on", *echo["with_filter"].values()],
                    ["off", *echo["without_filter"].values()],
                ],
                title="Ablation A2: hardware blocking filter",
            ),
        )
    )


def _expectations(files: Files) -> list[PaperExpectation]:
    light = max(row.think_time for row in files["threshold.csv"])
    elapsed = {
        row.threshold: row.elapsed
        for row in files["threshold.csv"]
        if row.think_time == light
    }
    shootouts = files["lock_protocols.csv"] + files["lock_primitives.csv"]
    primitives = {row.system: row for row in files["lock_primitives.csv"]}
    echo = files["echo_blocking.json"]
    # The forced modes have no golden file of their own; they are three
    # small counter runs, measured where the claim about them is made.
    forced = {mode: r.elapsed for mode, r in run_force_modes().items()}
    return [
        PaperExpectation(
            "A1: at light contention the paper's 0.30 threshold is no "
            "slower than never speculating (threshold 0)",
            elapsed[0.3] <= elapsed[0.0] * 1.02,
        ),
        PaperExpectation(
            "A2: the Figure 6 filter keeps the double write correct and its "
            "RMW chain intact; without it the stale echo breaks both",
            all(echo["with_filter"].values())
            and not any(echo["without_filter"].values()),
        ),
        PaperExpectation(
            "A3: every consistency system and lock primitive counts correctly",
            all(row.correct for row in shootouts),
        ),
        PaperExpectation(
            "A3: the queue-based GWC lock is no slower than test-and-set, "
            "and TTAS spins remotely less than TAS",
            primitives["gwc_queue"].elapsed <= primitives["tas"].elapsed
            and primitives["ttas"].remote_attempts
            < primitives["tas"].remote_attempts,
        ),
        PaperExpectation(
            "the usage history lands within 25% of the better forced mode",
            forced["adaptive"]
            <= min(forced["optimistic"], forced["regular"]) * 1.25,
        ),
    ]


EXPERIMENT = Experiment(
    name="ablation",
    help="Ablations: threshold / echo filter / lock shoot-outs",
    # Moderate and light contention: where the threshold decides the path.
    quick={"think_times": (15e-6, 50e-6)},
    run=_run,
    render=_render,
    expectations=_expectations,
    flags=(JOBS,),
)
