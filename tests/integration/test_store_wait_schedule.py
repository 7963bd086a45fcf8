"""Filtering store waits at fire time leaves the heap schedule exact.

Each constant is the digest of the popped ``(time, seq)`` stream of one
run on commit a7f611e, the last tree whose ``wait_until`` resumed its
process on every write, with that tree's false wakes dropped
(``drop_false_wakes=True``; ``tools/bench_pairs.export_revision`` gives
the tree, run ``tests/schedule.py`` with ``PYTHONPATH=<tree>/src``).  The
filtered tree must pop exactly that stream with nothing dropped: every
heap entry it still pushes keeps the unfiltered key.  A fresh seq where
a pending slot should be reused moves the task-queue digest while every
golden stays byte-identical.
"""

from __future__ import annotations

import pytest

from repro.params import PAPER_PARAMS
from repro.workloads.counter import CounterConfig, run_counter
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue
from tests.schedule import popped_schedule_sha256

PINNED = [
    pytest.param(
        lambda: run_task_queue(TaskQueueConfig(system="gwc", n_nodes=5, total_tasks=64)),
        "db3c27c055cf9ca5e84165d520fc3c3455c399db89e3a7c61c67082c4207e9d5",
        id="task_queue-gwc-5x64",
    ),
    pytest.param(
        lambda: run_task_queue(
            TaskQueueConfig(
                system="gwc",
                n_nodes=17,
                total_tasks=128,
                params=PAPER_PARAMS.zero_delay(),
            )
        ),
        "105650af8a0edcfdca01b97f0a4a727b7306b504bad4dc717d02a485d78e58ca",
        id="task_queue-gwc-zero_delay-17x128",
    ),
    pytest.param(
        lambda: run_counter(
            CounterConfig(
                system="gwc_optimistic",
                n_nodes=16,
                increments_per_node=16,
                think_time=5e-6,
            )
        ),
        "31f3eb727f65a0ad3c9d68332ec168b1c7964cc9cd9793776d247d0aca13477a",
        id="counter-gwc_optimistic-16",
    ),
]


@pytest.mark.parametrize("run, digest", PINNED)
def test_schedule_equals_the_unfiltered_one_without_its_false_wakes(
    monkeypatch, run, digest
):
    assert popped_schedule_sha256(monkeypatch, None, run) == digest
