"""Hand-pinned numbers at points no golden surface covers.

Every experiment's artefacts are pinned byte for byte by ``goldens/``
(``make verify-goldens``), at quick and, for figure2, figure8 and
rootshard, paper scale.  The two points below — the pipeline at n=4
with 64 data items and the task queue at n=5 with 64 tasks — are run by
no experiment preset, so they are pinned here, with a determinism check.

If you *intend* to change the cost model: regenerate the goldens with
``REPRO_REGEN_GOLDENS=1 make goldens``, update EXPERIMENTS.md from
them, and refresh these constants.
"""

from __future__ import annotations

import pytest

from repro.workloads.counter import CounterConfig, run_counter
from repro.workloads.pipeline import PipelineConfig, run_pipeline
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

#: Values recorded from the calibrated build.
GOLDEN_PIPELINE_POWER = {  # n=4, data=64
    "gwc_optimistic": 1.6221374045801544,
    "gwc": 1.5492855059784243,
}
GOLDEN_TASKQUEUE_SPEEDUP = {  # n=5, tasks=64
    "gwc": 3.9678347272237455,
    "entry": 3.7005337463774888,
}


class TestGoldenPipeline:
    @pytest.mark.parametrize(
        "system,expected", sorted(GOLDEN_PIPELINE_POWER.items())
    )
    def test_network_power_pinned(self, system, expected):
        result = run_pipeline(
            PipelineConfig(system=system, n_nodes=4, data_size=64)
        )
        assert result.speedup == pytest.approx(expected, rel=1e-6)


class TestGoldenTaskQueue:
    @pytest.mark.parametrize(
        "system,expected", sorted(GOLDEN_TASKQUEUE_SPEEDUP.items())
    )
    def test_speedup_pinned(self, system, expected):
        result = run_task_queue(
            TaskQueueConfig(system=system, n_nodes=5, total_tasks=64)
        )
        assert result.speedup == pytest.approx(expected, abs=5e-4)


class TestGoldenDeterminism:
    def test_counter_elapsed_is_reproducible(self):
        a = run_counter(CounterConfig(system="gwc_optimistic", n_nodes=5,
                                      increments_per_node=6, seed=3))
        b = run_counter(CounterConfig(system="gwc_optimistic", n_nodes=5,
                                      increments_per_node=6, seed=3))
        assert a.elapsed == b.elapsed
        assert a.counter("opt.rollbacks") == b.counter("opt.rollbacks")
