"""Cross-system workload correctness: the same program must be correct
under every consistency model, whatever its performance."""

from __future__ import annotations

import pytest

from repro.workloads.counter import CounterConfig, run_counter
from repro.workloads.pipeline import PipelineConfig, run_pipeline
from repro.workloads.synthetic import SyntheticConfig, run_synthetic
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

ALL_SYSTEMS = ("gwc", "gwc_optimistic", "entry", "release", "weak", "sequential")


class TestCounter:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_no_lost_updates(self, system):
        result = run_counter(
            CounterConfig(system=system, n_nodes=5, increments_per_node=6)
        )
        assert result.extra["correct"], result.extra

    @pytest.mark.parametrize("system", ("gwc", "gwc_optimistic", "release"))
    def test_eager_systems_converge_everywhere(self, system):
        result = run_counter(
            CounterConfig(system=system, n_nodes=5, increments_per_node=4)
        )
        assert result.extra["converged"], result.extra

    def test_entry_final_value_lives_with_last_owner(self):
        result = run_counter(
            CounterConfig(system="entry", n_nodes=4, increments_per_node=4)
        )
        assert max(result.extra["final_values"]) == result.extra["expected"]

    def test_single_node_degenerate_case(self):
        result = run_counter(
            CounterConfig(system="gwc_optimistic", n_nodes=1, increments_per_node=5)
        )
        assert result.extra["correct"]

    @pytest.mark.parametrize("seed", range(3))
    def test_seeds_do_not_affect_correctness(self, seed):
        result = run_counter(
            CounterConfig(
                system="gwc_optimistic", n_nodes=6, increments_per_node=5, seed=seed
            )
        )
        assert result.extra["correct"]


class TestTaskQueue:
    @pytest.mark.parametrize(
        "system", ("gwc", "gwc_optimistic", "entry", "release", "sequential")
    )
    def test_every_task_executed_exactly_once(self, system):
        result = run_task_queue(
            TaskQueueConfig(system=system, n_nodes=5, total_tasks=40)
        )
        assert result.extra["all_executed"], result.extra

    def test_speedup_below_consumer_count(self):
        result = run_task_queue(TaskQueueConfig(system="gwc", n_nodes=5, total_tasks=64))
        assert result.speedup <= 4.0 + 1e-9

    def test_speedup_grows_with_consumers(self):
        small = run_task_queue(TaskQueueConfig(system="gwc", n_nodes=3, total_tasks=64))
        large = run_task_queue(TaskQueueConfig(system="gwc", n_nodes=9, total_tasks=64))
        assert large.speedup > small.speedup * 2

    def test_two_nodes_minimum(self):
        result = run_task_queue(TaskQueueConfig(system="gwc", n_nodes=2, total_tasks=8))
        assert result.extra["all_executed"]

    def test_single_node_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            run_task_queue(TaskQueueConfig(system="gwc", n_nodes=1))

    def test_retired_shard_inputs_are_accepted_and_inert(self):
        """The frozen layered benchmark still sets them (``shard_scale``)."""
        base = dict(system="gwc", n_nodes=5, total_tasks=16)
        plain = run_task_queue(TaskQueueConfig(**base))
        retired = run_task_queue(
            TaskQueueConfig(
                shards=2, shard_policy="timewarp", shard_backend="process", **base
            )
        )
        assert retired.extra == plain.extra  # state_hash included


class TestPipeline:
    @pytest.mark.parametrize(
        "system", ("gwc", "gwc_optimistic", "entry", "release", "sequential")
    )
    def test_accumulator_exact(self, system):
        result = run_pipeline(
            PipelineConfig(system=system, n_nodes=4, data_size=32)
        )
        assert result.extra["acc_correct"], result.extra

    def test_no_rollbacks_without_contention(self):
        result = run_pipeline(
            PipelineConfig(system="gwc_optimistic", n_nodes=8, data_size=64)
        )
        assert result.extra["rollbacks"] == 0

    def test_optimistic_beats_regular(self):
        opt = run_pipeline(
            PipelineConfig(system="gwc_optimistic", n_nodes=4, data_size=64)
        )
        reg = run_pipeline(PipelineConfig(system="gwc", n_nodes=4, data_size=64))
        assert opt.speedup > reg.speedup

    def test_power_bounded_by_ideal(self):
        result = run_pipeline(
            PipelineConfig(system="gwc_optimistic", n_nodes=4, data_size=64)
        )
        assert result.speedup < result.extra["ideal_power"]

    def test_single_node_ring(self):
        result = run_pipeline(
            PipelineConfig(system="gwc_optimistic", n_nodes=1, data_size=8)
        )
        assert result.extra["acc_correct"]

    def test_indivisible_data_size_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            run_pipeline(PipelineConfig(system="gwc", n_nodes=3, data_size=32))


class TestSynthetic:
    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_hold_across_seeds(self, seed):
        result = run_synthetic(
            SyntheticConfig(system="gwc_optimistic", n_nodes=5, sections_per_node=8, seed=seed)
        )
        assert result.extra["correct"], result.extra
        assert result.extra["converged"]

    @pytest.mark.parametrize("system", ("gwc", "release"))
    def test_other_systems_also_correct(self, system):
        result = run_synthetic(
            SyntheticConfig(system=system, n_nodes=4, sections_per_node=6)
        )
        assert result.extra["correct"]
