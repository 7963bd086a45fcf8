"""Root-sharding parity workload: one family, many roots, same answer.

The proof obligation of root sharding (PR 10) is *semantic parity*: a
family of K sibling subgroups, each sequencing its own partition of the
shared address space, must drive every member to exactly the final
state a single-root run produces.  This workload is built so that the
final state is fully determined regardless of how sequencing is split:

* a **hot key** hammered by one writer (single-writer, so the last
  write wins under any per-variable total order),
* a spread of **cold units** each owned by one writer,
* several **lock-protected counters** incremented through critical
  sections (the mutual-exclusion checker proves the RMW chain, so the
  final count is exact under any root layout — including after a lock
  manager migrates between live roots mid-run).

Plain writes in flight when a migration fence lands are discarded
at-most-once (the PR 6 failover-window rule, reused verbatim); each
writer therefore makes its *final* write durable by polling its own
apply-back and re-sharing on timeout, the same durability barrier the
fenced section path uses.  Lock requests in flight at fence time are
recovered by the standard :class:`LockRetryPolicy` timeout.

With ``rebalance=True`` a controller process watches family throughput
and, once ``rebalance_frac`` of the expected traffic has been
sequenced, re-partitions the family online via LPT planning
(:func:`repro.memory.repartition.rebalance_family`) — moving the hot
key off its hashed home.  The result records per-root sequencing load
before and after the fence so sweeps can assert the acceptance bar:
max-root share <= 2x mean-root share after re-partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.consistency.base import DsmSystem, make_system
from repro.consistency.checker import MutualExclusionChecker
from repro.core.machine import DSMMachine
from repro.core.node import NodeHandle
from repro.core.section import Section, SectionContext
from repro.errors import WorkloadError
from repro.locks.gwc_lock import LockRetryPolicy
from repro.memory.repartition import (
    MigrationReport,
    arm_migration_fencing,
    rebalance_family,
)
from repro.params import PAPER_PARAMS, MachineParams
from repro.sim.statehash import shared_state_hash, shared_state_payload
from repro.workloads.base import WorkloadResult, finish

GROUP = "rootshard_group"
HOT = "hot_key"


def cold_var(index: int) -> str:
    return f"cold{index}"


def tally_var(index: int) -> str:
    return f"tally{index}"


def tally_lock(index: int) -> str:
    return f"shard_lock{index}"


@dataclass(frozen=True, slots=True)
class RootShardConfig:
    """Parameters for the root-sharding parity workload."""

    system: str = "gwc"
    n_nodes: int = 16
    #: Number of root partitions; 1 is the serial baseline.
    roots: int = 2
    #: Relay-tree fanout for hierarchical multicast; None = direct.
    fanout: int | None = None
    #: Writes to the injected hot key (one writer).
    hot_rounds: int = 48
    hot_writer: int = 1
    #: Think time between hot-key writes.  Keeping this well below
    #: ``think_time`` while sizing ``hot_rounds`` so the hot writer and
    #: the cold writers finish together makes the key hot in *rate* —
    #: the stationary-load shape LPT rebalancing is built for.
    hot_think: float = 5e-7
    #: Single-writer cold variables and writes per variable.
    cold_units: int = 8
    cold_rounds: int = 6
    #: Lock-protected counters; locker ``i`` works counter ``i % n_locks``.
    n_locks: int = 2
    n_lockers: int = 8
    increments: int = 3
    think_time: float = 2e-6
    update_time: float = 1e-6
    #: Re-partition online once ``rebalance_frac`` of the expected
    #: traffic has been sequenced (requires roots > 1).
    rebalance: bool = False
    rebalance_frac: float = 0.4
    min_gain: float = 0.05
    params: MachineParams = PAPER_PARAMS
    seed: int = 0
    partition_seed: int = 0
    topology: str = "mesh_torus"
    #: Optimism threshold forwarded to gwc_optimistic.
    threshold: float | None = None
    max_events: int | None = None

    def root_nodes(self) -> tuple[int, ...]:
        """Deterministic, spread-out root placement."""
        return tuple(
            (k * self.n_nodes) // self.roots for k in range(self.roots)
        )

    def expected_sequenced(self) -> int:
        """Rough expected family-wide sequenced-write count.

        Plain writes sequence once each; every counter increment costs
        about four sequenced writes (request, grant, data, release).
        Used only to time the online rebalance, not for assertions.
        """
        lockers = min(self.n_lockers, self.n_nodes)
        return (
            self.hot_rounds
            + self.cold_units * self.cold_rounds
            + 4 * lockers * self.increments
        )


def _durable_write(
    node: NodeHandle,
    system: DsmSystem,
    var: str,
    value: Any,
    settle: float,
) -> Generator[Any, Any, None]:
    """Write and poll the apply-back, re-sharing if a fence ate it.

    A plain write in flight when a migration (or failover) epoch fence
    lands is window-discarded — at-most-once delivery.  The writer's
    own apply never comes back, so after a few settle periods the write
    is re-issued; by then the member has adopted the new epoch and the
    re-routed copy lands at the new owning root.
    """
    yield from system.write(node, var, value)
    waits = 0
    while node.iface._applied.get(var) != value:
        yield settle
        waits += 1
        if waits % 8 == 0:
            yield from system.write(node, var, value)
        if waits > 100_000:
            raise WorkloadError(f"durable write of {var!r} never applied")


def _plain_writer(
    node: NodeHandle,
    system: DsmSystem,
    var: str,
    rounds: int,
    think_time: float,
    settle: float,
) -> Generator[Any, Any, None]:
    for i in range(rounds - 1):
        yield from node.busy(think_time, kind="useful")
        yield from system.write(node, var, i + 1)
    yield from node.busy(think_time, kind="useful")
    yield from _durable_write(node, system, var, rounds, settle)


def _increment_body(ctx: SectionContext) -> Generator[Any, Any, None]:
    var = ctx.node.locals["_rootshard_var"]
    value = ctx.read(var)
    yield from ctx.compute(ctx.node.locals["_rootshard_update_time"])
    if ctx.aborted:
        return
    ctx.write(var, value + 1)
    ctx.observe_rmw(var, value, value + 1)


def _locker(
    node: NodeHandle,
    system: DsmSystem,
    section: Section,
    count: int,
    think_time: float,
) -> Generator[Any, Any, None]:
    for _ in range(count):
        yield from node.busy(think_time, kind="useful")
        yield from system.run_section(node, section)


def _controller(
    machine: DSMMachine,
    config: RootShardConfig,
    settle: float,
    out: dict[str, Any],
) -> Generator[Any, Any, None]:
    """Watch family throughput, then re-partition online."""
    target = max(1, int(config.expected_sequenced() * config.rebalance_frac))
    while True:
        total = sum(
            engine.locally_sequenced for engine in machine.engines_for(GROUP)
        )
        if total >= target:
            break
        yield settle
    out["load_before"] = tuple(
        engine.locally_sequenced for engine in machine.engines_for(GROUP)
    )
    report = rebalance_family(machine, GROUP, min_gain=config.min_gain)
    out["report"] = report
    # Post-fence baseline: refresh traffic the migration itself
    # sequenced is excluded from the "after" load window.
    out["post_start"] = tuple(
        engine.locally_sequenced for engine in machine.engines_for(GROUP)
    )
    out["rebalanced_at"] = machine.sim.now


def run_rootshard(config: RootShardConfig) -> WorkloadResult:
    """Run the workload; extras carry parity hash and per-root loads."""
    if config.roots < 1:
        raise WorkloadError(f"need at least one root: {config.roots}")
    if config.roots > config.n_nodes:
        raise WorkloadError(
            f"{config.roots} roots need at least that many nodes "
            f"({config.n_nodes})"
        )
    machine = DSMMachine(
        n_nodes=config.n_nodes,
        topology=config.topology,
        params=config.params,
        seed=config.seed,
        reliable=True,
        checker=MutualExclusionChecker(),
    )
    settle = machine.nack_timeout / 4.0
    retry = LockRetryPolicy(
        timeout=40.0 * machine.nack_timeout, max_retries=64
    )
    system_kwargs: dict[str, Any] = {"lock_retry": retry}
    if config.threshold is not None and config.system == "gwc_optimistic":
        system_kwargs["threshold"] = config.threshold
    system = make_system(config.system, machine, **system_kwargs)

    machine.create_group(
        GROUP,
        roots=config.root_nodes(),
        partition_seed=config.partition_seed,
        fanout=config.fanout,
    )
    machine.declare_variable(GROUP, HOT, 0)
    for i in range(config.cold_units):
        machine.declare_variable(GROUP, cold_var(i), 0)
    for j in range(config.n_locks):
        machine.declare_variable(GROUP, tally_var(j), 0, mutex_lock=tally_lock(j))
        machine.declare_lock(
            GROUP, tally_lock(j), protects=(tally_var(j),), data_bytes=8
        )

    # The retry policy's timeout path cancels and re-requests, and a
    # migration fence can eat a grant in flight — both need the
    # managers' duplicate/cancel tolerance (recovery mode, no leases:
    # nothing crashes here, so time-based reclaim would only add risk).
    for engine in machine.engines_for(GROUP):
        engine.configure_lock_recovery()

    rebalancing = config.rebalance and config.roots > 1
    if rebalancing:
        arm_migration_fencing(machine)

    machine.spawn(
        _plain_writer(
            machine.nodes[config.hot_writer % config.n_nodes],
            system,
            HOT,
            config.hot_rounds,
            config.hot_think,
            settle,
        ),
        name="rootshard-hot",
    )
    for i in range(config.cold_units):
        writer = machine.nodes[(3 + 2 * i) % config.n_nodes]
        machine.spawn(
            _plain_writer(
                writer, system, cold_var(i), config.cold_rounds,
                config.think_time, settle,
            ),
            name=f"rootshard-cold{i}",
        )
    lockers = min(config.n_lockers, config.n_nodes)
    expected_tally = [0] * config.n_locks
    for rank in range(lockers):
        node = machine.nodes[rank]
        j = rank % config.n_locks
        expected_tally[j] += config.increments
        node.locals["_rootshard_var"] = tally_var(j)
        node.locals["_rootshard_update_time"] = config.update_time
        section = Section(
            lock=tally_lock(j),
            body=_increment_body,
            shared_reads=(tally_var(j),),
            shared_writes=(tally_var(j),),
            label=f"rootshard-inc{j}",
        )
        machine.spawn(
            _locker(node, system, section, config.increments, config.think_time),
            name=f"rootshard-locker{rank}",
        )
    control: dict[str, Any] = {}
    if rebalancing:
        machine.spawn(
            _controller(machine, config, settle, control),
            name="rootshard-controller",
        )

    result = finish(machine, system, max_events=config.max_events)

    if machine.checker is not None:
        for j in range(config.n_locks):
            machine.checker.verify_chain(tally_var(j), 0)
    payload = shared_state_payload(machine)
    values = payload["families"][GROUP]
    correct = values[HOT] == config.hot_rounds
    correct &= all(
        values[cold_var(i)] == config.cold_rounds
        for i in range(config.cold_units)
    )
    correct &= all(
        values[tally_var(j)] == expected_tally[j]
        for j in range(config.n_locks)
    )

    engines = machine.engines_for(GROUP)
    load_total = tuple(engine.locally_sequenced for engine in engines)
    report: MigrationReport | None = control.get("report")
    load_after: tuple[int, ...] | None = None
    max_over_mean_after: float | None = None
    if "post_start" in control:
        post_start = control["post_start"]
        load_after = tuple(
            engine.locally_sequenced - start
            for engine, start in zip(engines, post_start)
        )
        total_after = sum(load_after)
        if total_after > 0:
            max_over_mean_after = max(load_after) / (
                total_after / len(load_after)
            )
    result.extra.update(
        shared_hash=shared_state_hash(machine),
        correct=correct,
        roots=config.roots,
        root_nodes=config.root_nodes(),
        fanout=config.fanout,
        load_total=load_total,
        load_before=control.get("load_before"),
        load_after=load_after,
        max_over_mean_after=max_over_mean_after,
        migration_moves=dict(report.moves) if report is not None else None,
        locks_transferred=(
            report.locks_transferred if report is not None else 0
        ),
        fenced_partitions=(
            report.fenced_partitions if report is not None else ()
        ),
        migration_discards=sum(
            engine.migration_discards for engine in engines
        ),
        relayed_applies=sum(
            node.iface.relayed_applies for node in machine.nodes
        ),
        epoch_restarts=machine.metrics.total_counter(
            "section.epoch_restarts"
        ),
    )
    return result
