"""Multi-seed replication and summary statistics.

The simulator is deterministic per seed; workloads with randomized
timing (the synthetic contention generator, lossy-network runs) are
replicated across seeds and summarized as mean, standard deviation, and
a Student-t 95% confidence interval.  Deterministic workloads replicate
to identical values — the CI collapses to a point, which doubles as a
regression check on determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ExperimentError
from repro.experiments.common import Experiment, Files, PaperExpectation


@dataclass(frozen=True, slots=True)
class ReplicatedMetric:
    """Summary of one metric across replicated runs."""

    name: str
    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    values: tuple[float, ...]

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.6g} +/- {self.ci_half_width:.3g} "
            f"(95% CI, n={self.n})"
        )


def _t_critical(dof: int) -> float:
    """Two-sided 95% Student-t critical value."""
    try:
        from scipy import stats

        return float(stats.t.ppf(0.975, dof))
    except ImportError:  # pragma: no cover - scipy is available in CI
        # Conservative fallback table for small dof, else normal approx.
        table = {1: 12.71, 2: 4.30, 3: 3.18, 4: 2.78, 5: 2.57, 6: 2.45,
                 7: 2.36, 8: 2.31, 9: 2.26, 10: 2.23}
        return table.get(dof, 1.96)


def summarize(name: str, values: Iterable[float]) -> ReplicatedMetric:
    """Mean / std / 95% CI of a sample of replicated measurements."""
    data = tuple(float(v) for v in values)
    if not data:
        raise ExperimentError(f"metric {name!r}: no replications")
    n = len(data)
    mean = sum(data) / n
    if n == 1:
        return ReplicatedMetric(
            name=name, n=1, mean=mean, std=0.0, ci_low=mean, ci_high=mean,
            values=data,
        )
    var = sum((v - mean) ** 2 for v in data) / (n - 1)
    std = math.sqrt(var)
    half = _t_critical(n - 1) * std / math.sqrt(n)
    return ReplicatedMetric(
        name=name,
        n=n,
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        values=data,
    )


def replicate(
    run: Callable[[int], float],
    seeds: Iterable[int] = range(5),
    name: str = "metric",
) -> ReplicatedMetric:
    """Run ``run(seed)`` for each seed and summarize the results."""
    return summarize(name, (run(seed) for seed in seeds))


def replicate_many(
    run: Callable[[int], dict[str, float]],
    seeds: Iterable[int] = range(5),
) -> dict[str, ReplicatedMetric]:
    """Replicate a run that reports several metrics at once."""
    collected: dict[str, list[float]] = {}
    for seed in seeds:
        for key, value in run(seed).items():
            collected.setdefault(key, []).append(value)
    return {key: summarize(key, values) for key, values in collected.items()}


def run_counter_replication() -> Files:
    """Per-seed counter makespans plus the same-seed determinism check.

    Replicating one seed five times must collapse the confidence
    interval to a point (std == 0); that property is recorded as data,
    and it keeps this artifact independent of whether scipy's Student-t
    table is installed on the host.
    """
    from repro.workloads.counter import CounterConfig, run_counter

    def one(seed: int) -> float:
        result = run_counter(
            CounterConfig(system="gwc", n_nodes=6, increments_per_node=8, seed=seed)
        )
        return result.elapsed

    seeds = range(5)
    collapsed = replicate(lambda _seed: one(0), seeds=seeds, name="elapsed")
    return {
        "replication.json": {
            "per_seed_elapsed": {str(seed): one(seed) for seed in seeds},
            "same_seed": {
                "n": collapsed.n,
                "mean": collapsed.mean,
                "std": collapsed.std,
                "ci_collapses_to_point": collapsed.ci_low == collapsed.ci_high,
            },
        }
    }


EXPERIMENT = Experiment(
    name="replication",
    help="multi-seed replication + same-seed determinism collapse",
    run=run_counter_replication,
    expectations=lambda files: [
        PaperExpectation(
            "replicating one seed collapses the confidence interval to a "
            "point (the simulator is deterministic per seed)",
            files["replication.json"]["same_seed"]["ci_collapses_to_point"],
        )
    ],
)
