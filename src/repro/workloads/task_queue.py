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
from repro.errors import WorkloadError
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.base import WorkloadResult, build_machine, finish

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
    #: Retired inputs: accepted, read by nothing.  The names stay only
    #: because the frozen ``benchmarks/layered`` ``shard_scale`` workload
    #: still sets them; they go when a ``benchmark`` issue retargets it.
    shards: int = 1
    shard_policy: str = "conservative"
    shard_backend: "str | None" = None
    #: Optional fault schedule (see :mod:`repro.faults.plan`).
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


def _build_task_queue(config: TaskQueueConfig):
    """Build the machine, its group and the producer/consumer processes."""
    machine, system = build_machine(
        config.system,
        config.n_nodes,
        params=config.params,
        seed=config.seed,
        topology=config.topology,
    )
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
    machine.spawn(_producer(producer, system, config), name="producer")
    for node in machine.nodes[1:]:
        machine.spawn(_consumer(node, system, config), name=f"consumer-{node.id}")
    return machine, system


def run_task_queue(config: TaskQueueConfig) -> WorkloadResult:
    """Run the Figure 2 workload under one consistency system."""
    if config.n_nodes < 2:
        raise WorkloadError("task queue needs a producer and >= 1 consumer")
    machine, system = _build_task_queue(config)
    result = finish(machine, system)
    executed = sum(node.locals.get("_executed", 0) for node in machine.nodes[1:])
    result.extra.update(
        total_tasks=config.total_tasks,
        executed=executed,
        all_executed=executed == config.total_tasks,
        max_speedup_bound=min(
            config.n_nodes - 1, 1.0 / config.produce_ratio
        ),
    )
    return result
