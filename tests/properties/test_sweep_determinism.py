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

import cProfile
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.errors import ExperimentError
from repro.experiments import runner
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure8 import run_figure8
from repro.experiments.runner import (
    JOBS_ENV,
    SweepExecutor,
    default_jobs,
    usable_cpus,
)
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

# Small scales keep each point fast; the executor's behaviour does not
# depend on point size.
FIG2_KW = dict(sizes=(3, 5), total_tasks=32)
FIG8_KW = dict(sizes=(2, 4), data_size=32)
#: The layered benchmark's ``fig2_sweep`` sizes.
FIG2_RULER_KW = dict(sizes=(3, 5, 9, 17, 33, 65, 129), total_tasks=256)

_CPUS = usable_cpus()


def _seeded_hash(seed: int) -> str:
    """One task-queue run's canonical state hash (module-level: picklable)."""
    result = run_task_queue(
        TaskQueueConfig(system="gwc", n_nodes=3, total_tasks=24, seed=seed)
    )
    return result.extra["state_hash"]


def _pid(_: object) -> int:
    return os.getpid()


def _figure2_in_daemon(queue) -> None:
    queue.put(run_figure2())


@pytest.fixture
def quick_env(monkeypatch):
    """The default job count (the sweeps default to their quick presets)."""
    monkeypatch.delenv(JOBS_ENV, raising=False)


class TestParallelMatchesSerial:
    def test_figure2_rows_bit_identical(self):
        serial = run_figure2(**FIG2_KW, jobs=1)
        parallel = run_figure2(**FIG2_KW, jobs=4)
        assert serial == parallel

    def test_figure8_rows_bit_identical(self):
        serial = run_figure8(**FIG8_KW, jobs=1)
        parallel = run_figure8(**FIG8_KW, jobs=4)
        assert serial == parallel

    def test_default_matches_serial_at_quick_preset(self, quick_env):
        assert run_figure2() == run_figure2(jobs=1)
        assert run_figure8() == run_figure8(jobs=1)

    def test_default_matches_serial_at_ruler_sizes(self, quick_env):
        assert run_figure2(**FIG2_RULER_KW) == run_figure2(**FIG2_RULER_KW, jobs=1)

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

    def test_env_var_absent_means_usable_cpus(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert default_jobs() == 3

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


class TestUsableCpus:
    """Default and clamp both come from the affinity set, not the host."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)

    def test_affinity_not_host_count(self, two_cpus):
        assert usable_cpus() == 2

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cpus() == 5

    def test_at_the_limit_is_silent(self, two_cpus, capsys):
        assert SweepExecutor(jobs=2).jobs == 2
        assert capsys.readouterr().err == ""

    def test_above_the_limit_clamps_with_notice(self, two_cpus, capsys):
        assert SweepExecutor(jobs=3).jobs == 2
        err = capsys.readouterr().err
        assert err.count("[sweep]") == 1 and "3 jobs" in err


class _RecordingPool:
    """A stand-in for ``Pool``: runs in-process, records dispatch order."""

    dispatched: list = []

    def __init__(self, processes):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        assert chunksize == 1
        _RecordingPool.dispatched = list(items)
        return [fn(item) for item in items]


class _RecordingContext:
    Pool = _RecordingPool


class TestDispatch:
    @settings(max_examples=50, deadline=None)
    @given(
        costs=st.lists(st.integers(min_value=0, max_value=4), max_size=12),
        jobs=st.integers(min_value=1, max_value=4),
    )
    def test_results_in_submission_order_dispatch_by_cost(self, costs, jobs):
        items = list(enumerate(costs))  # (submission index, cost)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "usable_cpus", lambda: 4)
            patch.setattr(runner, "_observed", lambda: False)
            patch.setattr(SweepExecutor, "_context", staticmethod(lambda: _RecordingContext))
            _RecordingPool.dispatched = []
            got = SweepExecutor(jobs).map(repr, items, cost=lambda item: item[1])
        assert got == [repr(item) for item in items]
        if min(jobs, len(items)) > 1:
            # Most expensive first; equal costs in submission order.
            assert _RecordingPool.dispatched == sorted(
                items, key=lambda item: (-item[1], item[0])
            )

    def test_real_pool_with_cost_matches_serial(self):
        seeds = [0, 1, 2, 17, 42]
        parallel = SweepExecutor(jobs=2).map(
            _seeded_hash, seeds, cost=lambda seed: -seed
        )
        assert parallel == [_seeded_hash(seed) for seed in seeds]


class TestStaysSerial:
    def test_under_cprofile_only_the_parent_runs_points(self):
        profile = cProfile.Profile()
        profile.enable()
        try:
            pids = SweepExecutor(jobs=2).map(_pid, range(4))
        finally:
            profile.disable()
        assert pids == [os.getpid()] * 4

    @pytest.mark.skipif(_CPUS < 2, reason="one usable CPU: always serial")
    def test_unobserved_points_run_in_workers(self):
        assert os.getpid() not in SweepExecutor(jobs=2).map(_pid, range(4))

    def test_daemonic_caller_falls_back_with_notice(self, quick_env, capfd):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_figure2_in_daemon, args=(queue,), daemon=True)
        child.start()
        rows = queue.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0  # None while still alive
        assert rows == run_figure2(jobs=1)
        if _CPUS > 1:
            assert capfd.readouterr().err.count("[sweep]") == 1


class TestCli:
    def test_invalid_env_var_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert cli.main(["figure2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and JOBS_ENV in err

    def test_default_stdout_equals_serial_stdout(self, quick_env):
        def figure2_stdout(**env):
            done = subprocess.run(
                [sys.executable, "-m", "repro", "figure2"],
                env={**os.environ, **env},
                capture_output=True,
                check=True,
            )
            return done.stdout

        assert figure2_stdout() == figure2_stdout(**{JOBS_ENV: "1"})
