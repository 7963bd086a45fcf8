"""The six workloads: what each calls, how it is checked, why it is here.

Every workload drives one public entry point of ``repro`` with a config
built from the run's seed, and knows how to check the result.  ``repro``
is imported inside the constructors so that the parent process (which
only needs the names) never loads the simulator.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Result counter -> exact per-layer metric.
RESULT_COUNTS = {
    "locks.sections": "lock.released",
    "locks.opt_attempts": "opt.attempts",
    "locks.opt_successes": "opt.successes",
    "locks.opt_rollbacks": "opt.rollbacks",
    "locks.regular_path": "opt.regular_path",
    "consistency.entry.fetches": "ec.fetches",
}
#: ``shard_stats`` keys reported as ``sim.shards.<key>``.
SHARD_COUNTS = ("rounds", "executed", "replayed", "rollbacks")


@dataclass
class Outcome:
    """What one pass produced, as far as the simulated system goes."""

    failures: list[str]
    fingerprint: str
    sim_time_us: float


@dataclass
class Point:
    """One call into the simulator observed from the harness (a span)."""

    label: str
    start: float
    end: float
    counts: dict[str, int] = field(default_factory=dict)


def result_counts(result: Any) -> dict[str, int]:
    """The exact counts a ``WorkloadResult`` carries."""
    counts = {
        metric: result.counter(counter)
        for metric, counter in RESULT_COUNTS.items()
    }
    shard_stats = result.extra.get("shard_stats", {})
    for key in SHARD_COUNTS:
        counts[f"sim.shards.{key}"] = shard_stats.get(key, 0)
    return counts


class Workload:
    """One call into ``repro`` returning a ``WorkloadResult``."""

    name = ""
    why = ""

    def __init__(self, seed: int, quick: bool) -> None:
        """Build the config: ``seed`` into it, ``quick`` for self-test sizes."""
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def failures(self, result: Any) -> list[str]:
        raise NotImplementedError

    def outcome(self, result: Any) -> Outcome:
        return Outcome(
            failures=self.failures(result),
            fingerprint=result.extra["state_hash"],
            sim_time_us=result.elapsed * 1e6,
        )

    def run_observed(self) -> tuple[Any, list[Point]]:
        """The traced pass: the same call, with its spans and counts."""
        start = time.perf_counter()
        result = self.run()
        point = Point(self.name, start, time.perf_counter(), result_counts(result))
        return result, [point]

    def reference_failures(self, result: Any) -> list[str]:
        """Compare against an untimed twin run, where the workload has one."""
        return []

    def variants(self) -> dict[str, Callable[[], Any]]:
        """Other ways to run the same inputs, timed only in the traced run."""
        return {}


def _failed(checks: dict[str, bool]) -> list[str]:
    """The claims that do not hold."""
    return [claim for claim, holds in checks.items() if not holds]


class Fig2Sweep(Workload):
    name = "fig2_sweep"
    why = (
        "What a user of `repro figure2` waits for: seven network sizes x three "
        "series; mostly wide GWC fan-out (memory.interface, net.network, "
        "sim.kernel); the optimistic runner does nothing."
    )

    def __init__(self, seed: int, quick: bool) -> None:
        # run_figure2 takes no seed: its inputs are the same on every seed.
        self.sizes = (3, 5, 9) if quick else (3, 5, 9, 17, 33, 65, 129)
        self.total_tasks = 64 if quick else 256
        self.task_time = 200e-6

    def run(self) -> Any:
        from repro.experiments.figure2 import run_figure2

        return run_figure2(
            sizes=self.sizes, total_tasks=self.total_tasks, task_time=self.task_time
        )

    def failures(self, rows: Any) -> list[str]:
        from repro.experiments.figure2 import expectations

        return [check.claim for check in expectations(rows) if not check.holds]

    def outcome(self, rows: Any) -> Outcome:
        work = self.total_tasks * self.task_time
        return Outcome(
            failures=self.failures(rows),
            fingerprint=hashlib.sha256(repr(rows).encode()).hexdigest(),
            sim_time_us=sum(work / row.gwc for row in rows) * 1e6,
        )

    def run_observed(self) -> tuple[Any, list[Point]]:
        # run_figure2 returns speedup rows only, so the traced pass (and
        # only it) watches the sweep's per-point calls from here to get
        # one span and one set of counters per point.
        import repro.experiments.figure2 as figure2

        points: list[Point] = []
        inner = figure2.run_task_queue

        def observed(config: Any) -> Any:
            start = time.perf_counter()
            result = inner(config)
            points.append(
                Point(
                    f"{config.system}@n{config.n_nodes}",
                    start,
                    time.perf_counter(),
                    result_counts(result),
                )
            )
            return result

        figure2.run_task_queue = observed
        try:
            rows = self.run()
        finally:
            figure2.run_task_queue = inner
        return rows, points


class PipelineOpt(Workload):
    name = "pipeline_opt"
    why = (
        "Figure 8's regime on a narrow group: every section speculates and "
        "commits, so per-section protocol cost (locks, consistency.gwc) has "
        "its largest share and fan-out its smallest."
    )

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.workloads.pipeline import PipelineConfig

        self.config = PipelineConfig(
            system="gwc_optimistic",
            n_nodes=8,
            data_size=256 if quick else 4096,
            seed=seed,
        )

    def run(self) -> Any:
        from repro.workloads.pipeline import run_pipeline

        return run_pipeline(self.config)

    def failures(self, result: Any) -> list[str]:
        size = self.config.data_size
        return _failed(
            {
                "acc_correct": result.extra["acc_correct"],
                "rollbacks == 0": result.extra["rollbacks"] == 0,
                f"opt.successes == {size}": result.counter("opt.successes") == size,
            }
        )


class CounterContended(Workload):
    name = "counter_contended"
    why = (
        "The same optimistic runner the other way: nearly every section takes "
        "the history-gated regular path behind a queue and a few roll back, so "
        "a commit-path gain paid for on the fallback path shows."
    )

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.workloads.counter import CounterConfig

        self.config = CounterConfig(
            system="gwc_optimistic",
            n_nodes=16,
            increments_per_node=16 if quick else 256,
            think_time=5e-6,
            seed=seed,
        )

    def run(self) -> Any:
        from repro.workloads.counter import run_counter

        return run_counter(self.config)

    def failures(self, result: Any) -> list[str]:
        return _failed(
            {
                "correct": result.extra["correct"],
                "converged": result.extra["converged"],
            }
        )


class PipelineEntry(Workload):
    name = "pipeline_entry"
    why = (
        "The comparator that dominates `figure8 --full`: consistency.entry, "
        "point-to-point messages, no trains; the GWC interface is nearly "
        "idle, so a GWC-path gain must not move it."
    )

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.workloads.pipeline import PipelineConfig

        self.config = PipelineConfig(
            system="entry",
            n_nodes=16 if quick else 64,
            data_size=64 if quick else 256,
            seed=seed,
        )

    def run(self) -> Any:
        from repro.workloads.pipeline import run_pipeline

        return run_pipeline(self.config)

    def failures(self, result: Any) -> list[str]:
        return _failed({"acc_correct": result.extra["acc_correct"]})


class RootShardK4(Workload):
    name = "rootshard_k4"
    why = (
        "The only workload through K>1 root partitions, relay-tree delivery "
        "and the online handoff (memory.partition); guards ROADMAP's K=1 and "
        "one-handoff unifications against a silent slowdown."
    )

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.workloads.rootshard import RootShardConfig

        sizes: dict[str, Any] = (
            dict(n_nodes=32, hot_rounds=96, cold_units=16, cold_rounds=6)
            if quick
            else dict(n_nodes=128, hot_rounds=240, cold_units=32, cold_rounds=12)
        )
        self.config = RootShardConfig(
            system="gwc_optimistic",
            roots=4,
            fanout=8,
            rebalance=True,
            n_locks=4,
            n_lockers=32,
            increments=6,
            seed=seed,
            partition_seed=seed,
            **sizes,
        )

    def run(self) -> Any:
        from repro.workloads.rootshard import run_rootshard

        return run_rootshard(self.config)

    def failures(self, result: Any) -> list[str]:
        return _failed(
            {
                "correct": result.extra["correct"],
                "locks_transferred >= 1": result.extra["locks_transferred"] >= 1,
            }
        )

    def reference_failures(self, result: Any) -> list[str]:
        from dataclasses import replace

        from repro.workloads.rootshard import run_rootshard

        twin = run_rootshard(
            replace(self.config, roots=1, fanout=None, rebalance=False)
        )
        return _failed(
            {
                "shared_hash equals the roots=1 twin": twin.extra["shared_hash"]
                == result.extra["shared_hash"]
            }
        )


class ShardScale(Workload):
    name = "shard_scale"
    why = (
        "The only workload where sim.shards works (replays per executed "
        "event); it calls only the default front door, so a backend or policy "
        "may be deleted without breaking the ruler."
    )

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.workloads.task_queue import TaskQueueConfig

        self.config = TaskQueueConfig(
            system="gwc",
            n_nodes=9,
            total_tasks=64 if quick else 256,
            shards=2,
            seed=seed,
        )

    def _run(self, **changes: Any) -> Any:
        from dataclasses import replace

        from repro.workloads.task_queue import run_task_queue

        return run_task_queue(replace(self.config, **changes))

    def run(self) -> Any:
        return self._run()

    def failures(self, result: Any) -> list[str]:
        return _failed({"all_executed": result.extra["all_executed"]})

    def reference_failures(self, result: Any) -> list[str]:
        twin = self._run(shards=1)
        return _failed(
            {
                "state_hash equals the shards=1 twin": twin.extra["state_hash"]
                == result.extra["state_hash"]
            }
        )

    def variants(self) -> dict[str, Callable[[], Any]]:
        return {
            "serial": lambda: self._run(shards=1),
            "conservative": lambda: self._run(shard_policy="conservative"),
            "process": lambda: self._run(shard_backend="process"),
        }


#: Fixed order: rounds run the workloads in this order.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        Fig2Sweep,
        PipelineOpt,
        CounterContended,
        PipelineEntry,
        RootShardK4,
        ShardScale,
    )
}
