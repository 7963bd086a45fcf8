"""The Figure 2 task-management application.

"One producer generates a total of 1024 tasks and waits for the last to
be executed before stopping. ... The time to produce a task is assumed
to be [a small fraction] of the time to process a task.  Since the time
to generate 1024 tasks is negligible compared to the execution time, the
producer is effectively an idle processor."

Structure of this driver:

* Node 0 is the **producer** and the sharing-group root.  It publishes
  new tasks by advancing a single-writer shared counter ``produced`` —
  an *ordinary* eagerly shared variable (Section 2: "the case for one
  writer is simple; an ordinary variable can lock a data structure
  awaited by readers").
* Nodes 1..N-1 are **consumers**.  Claiming a task and reporting a
  completion is one lock-protected critical section over the guarded
  counters ``taken`` and ``completed``.
* A consumer that finds the queue empty waits for ``produced`` to
  advance: under GWC the new value arrives eagerly and wakes it; under
  entry consistency it must *fetch and test* the producer's variable —
  exactly the network traffic the paper blames for entry consistency's
  lower peak.
* Speedup counts only task execution as useful work; producing is not
  useful time ("the producer is effectively an idle processor").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.node import NodeHandle
from repro.core.section import Section, SectionContext
from repro.errors import ShardingError, WorkloadError
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.base import (
    WorkloadResult,
    build_machine,
    finish,
    run_sharded,
    shard_fallback_reason,
)

GROUP = "fig2_group"
PRODUCED = "produced"
TAKEN = "taken"
COMPLETED = "completed"
LOCK = "queue_lock"


@dataclass(frozen=True, slots=True)
class TaskQueueConfig:
    """Parameters for the Figure 2 task-management run."""

    system: str = "gwc"
    #: Network size; the paper uses powers of two plus one (3, 5, ..., 129)
    #: "to eliminate load balancing effects".
    n_nodes: int = 5
    total_tasks: int = 64
    #: Time to execute one task, seconds.
    task_time: float = 200e-6
    #: task production : execution time ratio (paper: a small fraction,
    #: chosen here as 1/128 so one producer can just feed 128 consumers).
    produce_ratio: float = 1.0 / 128.0
    #: Bookkeeping compute inside the claim/report critical section.
    section_time: float = 0.2e-6
    params: MachineParams = PAPER_PARAMS
    seed: int = 0
    topology: str = "mesh_torus"
    #: Run under the sharded kernel when > 1 (see :mod:`repro.sim.shards`).
    #: Unshardable configurations fall back to a serial run.
    shards: int = 1
    #: Retired inputs, one legal value each (``"conservative"``;
    #: ``None`` or ``"inproc"``): the sharded kernel has one sync policy
    #: and one backend.  The names stay only because the frozen
    #: ``benchmarks/layered`` ``shard_scale`` variants still set them
    #: and skip a variant only on ``ReproError``;
    #: :func:`run_task_queue` raises ``ShardingError`` for anything else.
    shard_policy: str = "conservative"
    shard_backend: "str | None" = None
    #: Optional fault schedule (see :mod:`repro.faults.plan`), installed
    #: on every build — serial and each shard replica alike, so chaos
    #: runs stay shard-parity-comparable when the plan itself is
    #: deterministic (probability 1.0, no jitter).
    fault_plan: "FaultPlan | None" = None  # noqa: F821

    @property
    def produce_time(self) -> float:
        return self.task_time * self.produce_ratio


#: Sentinel claim results stored in ``node.locals["_claim"]``.
CLAIM_DONE = "done"
CLAIM_EMPTY = "empty"


def _claim_body(ctx: SectionContext) -> "Generator":  # noqa: F821
    """Report the previous completion and claim the next task."""
    yield from ctx.compute(ctx.node.locals["_section_time"])
    if ctx.aborted:
        return
    pending = ctx.local("_pending_report", 0)
    if pending:
        ctx.write(COMPLETED, ctx.read(COMPLETED) + pending)
        ctx.set_local("_pending_report", 0)
    taken = ctx.read(TAKEN)
    produced = ctx.node.store.read(PRODUCED)  # ordinary var: local copy
    total = ctx.local("_total")
    ctx.set_local("_seen_produced", produced)
    if taken >= total:
        ctx.set_local("_claim", CLAIM_DONE)
    elif taken < produced:
        ctx.write(TAKEN, taken + 1)
        ctx.set_local("_claim", taken)
    else:
        ctx.set_local("_claim", CLAIM_EMPTY)


_CLAIM_SECTION = Section(
    lock=LOCK,
    body=_claim_body,
    shared_reads=(TAKEN, COMPLETED),
    shared_writes=(TAKEN, COMPLETED),
    local_vars=("_pending_report", "_claim", "_seen_produced"),
    label="fig2-claim",
)


def _producer(node: NodeHandle, system, config: TaskQueueConfig):
    """Generate tasks, then wait for the last to be executed."""
    for task in range(1, config.total_tasks + 1):
        # Production time is real CPU time but not useful application
        # work in the paper's speedup metric.
        yield from node.busy(config.produce_time, kind="overhead")
        yield from system.write(node, PRODUCED, task)
    yield from system.wait_value(
        node, COMPLETED, lambda done: done >= config.total_tasks
    )


def _consumer(node: NodeHandle, system, config: TaskQueueConfig):
    node.locals["_total"] = config.total_tasks
    node.locals["_section_time"] = config.section_time
    node.locals["_pending_report"] = 0
    executed = 0
    while True:
        yield from system.run_section(node, _CLAIM_SECTION)
        claim = node.locals.get("_claim")
        if claim == CLAIM_DONE:
            break
        if claim == CLAIM_EMPTY:
            seen = node.locals["_seen_produced"]
            yield from system.wait_value(node, PRODUCED, lambda p: p > seen)
            continue
        yield from node.busy(config.task_time, kind="useful")
        executed += 1
        node.locals["_pending_report"] = 1
    node.locals["_executed"] = executed


def _build_task_queue(
    config: TaskQueueConfig, owned: "frozenset[int] | None" = None
):
    """Build one complete machine for the workload — shard-aware.

    With ``owned=None`` this is the serial build.  With an owned node
    set it builds the same machine deterministically but only spawns the
    owned nodes' processes (:meth:`DSMMachine.spawn_for`), making it the
    replica factory for :class:`~repro.sim.shards.ShardedSimulator`.
    """
    machine, system = build_machine(
        config.system,
        config.n_nodes,
        params=config.params,
        seed=config.seed,
        topology=config.topology,
    )
    machine.shard_owned = owned
    if config.fault_plan is not None:
        from repro.faults.injector import FaultInjector

        FaultInjector(machine, config.fault_plan).install()
    machine.create_group(GROUP, root=0)
    machine.declare_variable(GROUP, PRODUCED, 0)
    machine.declare_variable(GROUP, TAKEN, 0, mutex_lock=LOCK)
    machine.declare_variable(GROUP, COMPLETED, 0, mutex_lock=LOCK)
    # Under entry consistency each grant ships the guarded queue
    # structure (head/tail bookkeeping plus the active slot region), the
    # paper's "extra time to send the changed data with the lock".
    machine.declare_lock(GROUP, LOCK, protects=(TAKEN, COMPLETED), data_bytes=768)

    producer = machine.nodes[0]
    machine.spawn_for(0, _producer(producer, system, config), name="producer")
    for node in machine.nodes[1:]:
        machine.spawn_for(
            node.id, _consumer(node, system, config), name=f"consumer-{node.id}"
        )
    return machine, system


def run_task_queue(config: TaskQueueConfig) -> WorkloadResult:
    """Run the Figure 2 workload under one consistency system."""
    if config.n_nodes < 2:
        raise WorkloadError("task queue needs a producer and >= 1 consumer")
    if config.shard_policy != "conservative" or config.shard_backend not in (
        None,
        "inproc",
    ):
        raise ShardingError(
            f"shard_policy={config.shard_policy!r} / "
            f"shard_backend={config.shard_backend!r} were removed: the "
            "sharded kernel runs in-process under conservative lookahead "
            "windows only"
        )
    fallback = None
    if config.shards > 1:
        fallback = shard_fallback_reason(
            config.system, config.shards, config.params
        )
        if fallback is None:
            result = run_sharded(
                lambda owned: _build_task_queue(config, owned),
                config.n_nodes,
                config.shards,
            )
            kernel = result.extra.pop("_kernel")
            executed = sum(
                kernel.node(i).locals.get("_executed", 0)
                for i in range(1, config.n_nodes)
            )
            return _task_queue_extra(config, result, executed=executed)
    machine, system = _build_task_queue(config)
    result = finish(machine, system)
    if fallback is not None:
        result.extra["shard_fallback"] = fallback
    executed = sum(node.locals.get("_executed", 0) for node in machine.nodes[1:])
    return _task_queue_extra(config, result, executed=executed)


def _task_queue_extra(
    config: TaskQueueConfig, result: WorkloadResult, executed: int
) -> WorkloadResult:
    result.extra.update(
        total_tasks=config.total_tasks,
        executed=executed,
        all_executed=executed == config.total_tasks,
        max_speedup_bound=min(
            config.n_nodes - 1, 1.0 / config.produce_ratio
        ),
    )
    return result
