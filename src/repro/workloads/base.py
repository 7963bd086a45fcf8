"""Shared plumbing for workload drivers.

Each workload module exposes a frozen config dataclass and a
``run_<name>(config) -> WorkloadResult`` function that builds a fresh
:class:`~repro.core.machine.DSMMachine`, instantiates the requested
consistency system, spawns the workload processes, runs to quiescence,
and returns the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.consistency.base import DsmSystem, make_system
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
