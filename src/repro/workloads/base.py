"""Shared plumbing for workload drivers.

Each workload module exposes a frozen config dataclass and a
``run_<name>(config) -> WorkloadResult`` function that builds a fresh
:class:`~repro.core.machine.DSMMachine`, instantiates the requested
consistency system, spawns the workload processes, runs to quiescence,
and returns the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consistency.base import DsmSystem, make_system, system_is_shardable
from repro.consistency.checker import MutualExclusionChecker
from repro.core.machine import DSMMachine
from repro.errors import WorkloadError
from repro.metrics.collector import MachineMetrics
from repro.params import PAPER_PARAMS, MachineParams


@dataclass(slots=True)
class WorkloadResult:
    """Outcome of one workload run."""

    system: str
    n_nodes: int
    elapsed: float
    metrics: MachineMetrics
    #: Workload-specific observations (final values, per-node idle, ...).
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.metrics.speedup()

    @property
    def efficiency(self) -> float:
        return self.metrics.average_efficiency()

    def counter(self, name: str) -> int:
        return self.metrics.total_counter(name)


def build_machine(
    system: str,
    n_nodes: int,
    params: MachineParams = PAPER_PARAMS,
    seed: int = 0,
    topology: str = "mesh_torus",
    echo_blocking: bool = True,
    check: bool = True,
    **system_kwargs: Any,
) -> tuple[DSMMachine, DsmSystem]:
    """Create a machine plus the named consistency system bound to it."""
    if n_nodes < 1:
        raise WorkloadError(f"need at least one node: {n_nodes}")
    checker = MutualExclusionChecker() if check else None
    machine = DSMMachine(
        n_nodes=n_nodes,
        topology=topology,
        params=params,
        seed=seed,
        echo_blocking=echo_blocking,
        checker=checker,
    )
    dsm = make_system(system, machine, **system_kwargs)
    return machine, dsm


def finish(
    machine: DSMMachine,
    system: DsmSystem,
    max_events: int | None = None,
    **extra: Any,
) -> WorkloadResult:
    """Run the machine to quiescence and package the result."""
    from repro.sim.statehash import machine_state_hash

    machine.run(max_events=max_events)
    if machine.checker is not None:
        machine.checker.verify_no_occupancy()
    result = WorkloadResult(
        system=system.name,
        n_nodes=machine.n_nodes,
        elapsed=machine.metrics.elapsed,
        metrics=machine.metrics,
        extra=extra,
    )
    result.extra["state_hash"] = machine_state_hash(machine)
    return result


def shard_fallback_reason(
    system: str, shards: int, params: MachineParams
) -> str | None:
    """Why a requested sharded run must fall back to serial (or ``None``).

    The sharded kernel (:mod:`repro.sim.shards`) needs more than one
    shard, a message-pure consistency system, and a strictly positive
    cross-shard wire latency (the lookahead).  Workload drivers call
    this before committing to a sharded run so unshardable
    configurations degrade gracefully instead of raising.
    """
    if shards <= 1:
        return "shards <= 1"
    if not system_is_shardable(system):
        return f"system {system!r} is not message-pure"
    if params.hop_latency <= 0:
        return "hop_latency <= 0 gives zero cross-shard lookahead"
    return None


def run_sharded(
    factory: Callable[["frozenset[int] | None"], tuple[DSMMachine, DsmSystem]],
    n_nodes: int,
    shards: int,
    **extra: Any,
) -> WorkloadResult:
    """Run a workload under the sharded kernel and package the result.

    ``factory(owned)`` must deterministically build one complete replica
    (machine + system + groups + processes) spawning only the processes
    of the nodes in ``owned`` — see :data:`repro.sim.shards.ShardFactory`.
    The result's metrics and ``state_hash`` are merged views reading
    each node from its owning replica, directly comparable (bit-for-bit)
    with a serial :func:`finish` result.

    The kernel itself rides along as ``result.extra["_kernel"]`` so the
    workload driver can read merged node handles for its own accounting;
    drivers pop it before returning (it holds live simulator state and
    must not leak into pickled sweep results).
    """
    from repro.sim.shards import ShardedSimulator, ShardPlan

    plan = ShardPlan.from_groups(n_nodes, shards)
    kernel = ShardedSimulator(factory, plan)
    kernel.run()
    kernel.verify()
    metrics = kernel.merged_metrics()
    result = WorkloadResult(
        system=kernel.system_name,
        n_nodes=n_nodes,
        elapsed=metrics.elapsed,
        metrics=metrics,
        extra=extra,
    )
    result.extra.update(
        shards=plan.n_shards,
        shard_stats=kernel.stats.summary(),
        state_hash=kernel.state_hash(),
    )
    result.extra["_kernel"] = kernel
    return result
