"""Shard-parity smoke: the sharded kernel must hash equal to serial.

Quick Figure 2 task-queue points at several shard counts plus one
Figure 8 pipeline point, each compared by canonical state hash against
the serial run of the same configuration (see :mod:`repro.sim.shards`).
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import Experiment, Files, PaperExpectation
from repro.workloads.pipeline import PipelineConfig, run_pipeline
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue


def run_shard_parity(
    task_queue_sizes: tuple[int, ...], shard_counts: tuple[int, ...]
) -> Files:
    """Serial vs sharded canonical state hashes, one record per point."""

    def record(
        workload: str, n_nodes: int, shards: int, serial: Any, sharded: Any
    ) -> dict[str, Any]:
        return {
            "workload": workload,
            "n_nodes": n_nodes,
            "shards": shards,
            "serial_hash": serial.extra["state_hash"],
            "sharded_hash": sharded.extra["state_hash"],
            "parity": sharded.extra["state_hash"] == serial.extra["state_hash"],
            "routed": sharded.extra.get("shard_stats", {}).get("routed", 0),
        }

    records: list[dict[str, Any]] = []
    for n_nodes in task_queue_sizes:
        base = dict(system="gwc", n_nodes=n_nodes, total_tasks=32)
        serial = run_task_queue(TaskQueueConfig(**base))
        for shards in shard_counts:
            sharded = run_task_queue(TaskQueueConfig(shards=shards, **base))
            records.append(record("task_queue", n_nodes, shards, serial, sharded))
    base = dict(system="gwc_optimistic", n_nodes=8, data_size=64)
    serial = run_pipeline(PipelineConfig(**base))
    sharded = run_pipeline(PipelineConfig(shards=shard_counts[0], **base))
    records.append(record("pipeline", 8, shard_counts[0], serial, sharded))
    return {"shard_smoke.json": {"records": records}}


EXPERIMENT = Experiment(
    name="shard_smoke",
    help="sharded-kernel parity hashes vs serial",
    quick={"task_queue_sizes": (3, 5, 9), "shard_counts": (2, 4)},
    run=run_shard_parity,
    expectations=lambda files: [
        PaperExpectation(
            "every sharded run's final state hashes equal to the serial run",
            all(r["parity"] for r in files["shard_smoke.json"]["records"]),
        )
    ],
)
