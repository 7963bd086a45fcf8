"""Parallel sweep execution is observationally identical to serial.

The :class:`~repro.experiments.runner.SweepExecutor` promises that
fanning sweep points across worker processes changes wall-clock only:
every row comes back in submission order with bit-identical floats,
because each point derives all randomness from its own seed and shares
no state with its neighbours.  Determinism is checked through
:mod:`repro.sim.statehash` — the canonical digest of a run's final
machine state — rather than ad-hoc float or dict comparisons.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure8 import run_figure8
from repro.experiments.runner import (
    JOBS_ENV,
    SweepExecutor,
    default_jobs,
)
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

# Small scales keep each point fast; the executor's behaviour does not
# depend on point size.
FIG2_KW = dict(sizes=(3, 5), total_tasks=32)
FIG8_KW = dict(sizes=(2, 4), data_size=32)

_CPUS = os.cpu_count() or 1


def _seeded_hash(seed: int) -> str:
    """One task-queue run's canonical state hash (module-level: picklable)."""
    result = run_task_queue(
        TaskQueueConfig(system="gwc", n_nodes=3, total_tasks=24, seed=seed)
    )
    return result.extra["state_hash"]


class TestParallelMatchesSerial:
    def test_figure2_rows_bit_identical(self):
        serial = run_figure2(**FIG2_KW)
        parallel = run_figure2(**FIG2_KW, jobs=4)
        assert serial == parallel

    def test_figure8_rows_bit_identical(self):
        serial = run_figure8(**FIG8_KW)
        parallel = run_figure8(**FIG8_KW, jobs=4)
        assert serial == parallel

    def test_multiple_seeds_state_hashes_identical(self):
        seeds = [0, 1, 2, 17, 42]
        serial = [_seeded_hash(seed) for seed in seeds]
        parallel = SweepExecutor(jobs=4).map(_seeded_hash, seeds)
        assert serial == parallel

    def test_result_order_matches_submission_order(self):
        rows = SweepExecutor(jobs=3).map(_seeded_hash, [5, 3, 9])
        assert rows == [_seeded_hash(5), _seeded_hash(3), _seeded_hash(9)]

    def test_repeated_runs_state_hash_stable(self):
        assert _seeded_hash(7) == _seeded_hash(7)

    def test_different_final_states_hash_differently(self):
        # (Different *seeds* hash identically here — the task queue
        # draws no randomness — so vary the workload itself.)
        bigger = run_task_queue(
            TaskQueueConfig(system="gwc", n_nodes=3, total_tasks=25, seed=0)
        )
        assert _seeded_hash(0) != bigger.extra["state_hash"]


class TestExecutorConfig:
    def test_serial_when_jobs_one(self):
        assert SweepExecutor(jobs=1).map(len, ["ab", "c"]) == [2, 1]

    def test_empty_items(self):
        assert SweepExecutor(jobs=4).map(len, []) == []

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3
        # The executor itself clamps to the CPUs actually available.
        assert SweepExecutor().jobs == min(3, _CPUS)

    def test_env_var_absent_means_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert default_jobs() == 1

    def test_env_var_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ExperimentError, match="REPRO_JOBS"):
            default_jobs()

    def test_explicit_jobs_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert SweepExecutor(jobs=2).jobs == min(2, _CPUS)

    def test_oversubscription_clamped_with_notice(self, capsys):
        executor = SweepExecutor(jobs=_CPUS + 7)
        assert executor.jobs == _CPUS
        err = capsys.readouterr().err
        assert "[sweep]" in err and f"{_CPUS + 7} jobs" in err

    def test_within_cpu_budget_is_silent(self, capsys):
        assert SweepExecutor(jobs=1).jobs == 1
        assert capsys.readouterr().err == ""
