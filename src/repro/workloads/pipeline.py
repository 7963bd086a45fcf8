"""The Figure 8 linear pipeline used to evaluate optimistic locking.

"Each processor repeatedly waits for data from processor i-1, performs
local computations, gets a lock, performs more local computations and
updates shared data in a mutually exclusive section.  After releasing
the lock, it calculates new data and shares it with processor i+1.
Processor i then continues local calculations before looping again.
This example is basically a linear pipeline of events, where two sets of
local calculations can overlap at a time."

Model:

* a ring of N processors passes one data token; each node runs
  ``data_size / N`` iterations, so the token makes ``data_size`` hops in
  total ("for data size 1024, there are from 1024 to 8 iterations");
* one iteration = wait for the token → local computation *A* → critical
  section of length *A / mutex_ratio* updating guarded shared data →
  share the new token with the successor → trailing local computation
  *C = A* that overlaps the successor's work;
* with zero network delays the network power is
  ``(A + M + C) / (A + M)`` — exactly the paper's 1.89 ceiling for a
  mutex-to-local ratio of 1/8;
* "There is no contention among the processors for the mutually
  exclusive section, so no rollbacks occur" — the token serializes lock
  requests, which is what lets optimistic synchronization hide the whole
  lock round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.node import NodeHandle
from repro.core.section import Section, SectionContext
from repro.errors import WorkloadError
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.base import WorkloadResult, build_machine, finish

GROUP = "fig8_group"
ACC = "shared_block"
LOCK = "pipe_lock"


def pipe_var(node: int) -> str:
    """Name of the token variable written by ``node``."""
    return f"pipe_{node}"


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Parameters for the Figure 8 pipeline."""

    system: str = "gwc_optimistic"
    n_nodes: int = 4
    #: Total token hops; each node runs data_size / n_nodes iterations.
    data_size: int = 64
    #: Each local computation (A and C), seconds.
    local_time: float = 10e-6
    #: local : mutex time ratio (paper: the mutex section is 1/8 of each
    #: local computation).
    mutex_ratio: float = 8.0
    #: Size of one pipeline data token on the wire.
    item_bytes: int = 64
    #: Size of the guarded shared block updated in the mutex section.
    #: Under GWC its propagation hides in the pipeline slack; under entry
    #: consistency it ships with every lock grant, on the critical path —
    #: the paper's "extra time needed to transmit the shared data in the
    #: mutual exclusion section".
    block_bytes: int = 64
    params: MachineParams = PAPER_PARAMS
    seed: int = 0
    topology: str = "mesh_torus"
    #: Optimism threshold override for gwc_optimistic.
    threshold: float | None = None
    #: Optional fault schedule (see :mod:`repro.faults.plan`).
    fault_plan: "FaultPlan | None" = None  # noqa: F821

    @property
    def mutex_time(self) -> float:
        return self.local_time / self.mutex_ratio

    @property
    def iterations_per_node(self) -> int:
        return self.data_size // self.n_nodes

    def ideal_power(self) -> float:
        """The zero-delay network power: (A + M + C) / (A + M)."""
        a = self.local_time
        m = self.mutex_time
        return (2 * a + m) / (a + m)


def _mutex_body(ctx: SectionContext) -> "Generator":  # noqa: F821
    value = ctx.read(ACC)
    yield from ctx.compute(ctx.node.locals["_mutex_time"])
    if ctx.aborted:
        return
    ctx.write(ACC, value + ctx.local("_token"))


_MUTEX_SECTION = Section(
    lock=LOCK,
    body=_mutex_body,
    shared_reads=(ACC,),
    shared_writes=(ACC,),
    local_vars=("_token",),
    label="fig8-update",
)


def _stage(node: NodeHandle, system, config: PipelineConfig):
    n = config.n_nodes
    prev = pipe_var((node.id - 1) % n)
    mine = pipe_var(node.id)
    node.locals["_mutex_time"] = config.mutex_time
    for iteration in range(config.iterations_per_node):
        expected = n * iteration + node.id
        # Wait for the token from processor i-1 (node 0's first wait is
        # satisfied by the initial value, which starts the pipeline).
        yield from system.wait_value(node, prev, lambda v: v >= expected)
        yield from node.busy(config.local_time, kind="useful")  # A
        node.locals["_token"] = expected + 1
        yield from system.run_section(node, _MUTEX_SECTION)
        # Calculate new data and share it with processor i+1.
        yield from system.write(node, mine, expected + 1)
        yield from node.busy(config.local_time, kind="useful")  # C


def _build_pipeline(config: PipelineConfig):
    """Build the machine, its group and one stage process per node."""
    system_kwargs = {}
    if config.threshold is not None and config.system == "gwc_optimistic":
        system_kwargs["threshold"] = config.threshold
    machine, system = build_machine(
        config.system,
        config.n_nodes,
        params=config.params,
        seed=config.seed,
        topology=config.topology,
        **system_kwargs,
    )
    if config.fault_plan is not None:
        from repro.faults.injector import FaultInjector

        FaultInjector(machine, config.fault_plan).install()
    machine.create_group(GROUP, root=0)
    # Token variables: pipe_{N-1} starts at 0, which releases node 0's
    # first iteration and starts the pipeline.
    for node in range(config.n_nodes):
        initial = 0 if node == config.n_nodes - 1 else -1
        machine.declare_variable(
            GROUP, pipe_var(node), initial=initial, size_bytes=config.item_bytes
        )
    machine.declare_variable(
        GROUP, ACC, 0, mutex_lock=LOCK, size_bytes=config.block_bytes
    )
    machine.declare_lock(GROUP, LOCK, protects=(ACC,), data_bytes=config.block_bytes)

    for node in machine.nodes:
        machine.spawn(_stage(node, system, config), name=f"stage-{node.id}")
    return machine, system


def run_pipeline(config: PipelineConfig) -> WorkloadResult:
    """Run the Figure 8 pipeline under one consistency system."""
    if config.data_size % config.n_nodes != 0:
        raise WorkloadError(
            f"data_size {config.data_size} must divide evenly among "
            f"{config.n_nodes} nodes"
        )
    machine, system = _build_pipeline(config)
    result = finish(machine, system)
    expected_acc = sum(range(1, config.data_size + 1))
    final_acc = max(node.store.read(ACC) for node in machine.nodes)
    result.extra.update(
        network_power=result.speedup,
        ideal_power=config.ideal_power(),
        iterations_per_node=config.iterations_per_node,
        final_acc=final_acc,
        acc_correct=final_acc == expected_acc,
        rollbacks=result.counter("opt.rollbacks"),
    )
    return result
