"""The chaos soak harness behind ``repro chaos``.

Runs a workload (shared counter or the Figure 2 task queue) under a
seeded fault schedule, with the full recovery stack armed:

* holder leases + tolerant lock managers at the group root,
* client lock timeouts with exponential backoff and a retry budget,
* reliable multicast (NACK + heartbeat) so dropped/duplicated applies
  are recovered,
* a progress watchdog converting any residual hang into a diagnosable
  :class:`~repro.errors.StallError`.

After the run, the mutual-exclusion and RMW serializability invariants
are verified and the recovery observations (reclaim latency, retry
counts, per-cause drop counters) are packaged into a
:class:`ChaosResult`.  Everything is deterministic per
``(plan, seed)`` — :meth:`ChaosResult.fingerprint` is stable across
runs, which the determinism tests (and reproducible bug reports) rely
on.

Scenario compatibility: crash, partition, and duplicate scenarios need
the recovery machinery of the GWC family (leases, retries, reliable
multicast); the release/sequential/entry lock protocols have neither
timeouts nor duplicate tolerance, so only FIFO-preserving ``delay``
schedules are safe there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.consistency.base import make_system, system_names
from repro.consistency.checker import MutualExclusionChecker
from repro.core.machine import DSMMachine
from repro.core.node import NodeHandle
from repro.core.section import Section
from repro.errors import FaultError, InvariantViolationError, StallError
from repro.faults.failover import RootFailoverManager
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CRASH,
    DELAY,
    FaultPlan,
    crash,
    delay,
    duplicate,
    partition,
    restart,
)
from repro.locks.gwc_lock import LockRetryPolicy
from repro.params import PAPER_PARAMS, MachineParams
from repro.sim.watchdog import Watchdog
from repro.workloads import counter as counter_wl
from repro.workloads import task_queue as tq_wl

#: Systems with the full recovery stack (leases, retries, reliability).
GWC_FAMILY = ("gwc", "gwc_optimistic")

#: Scenario names.
SCENARIOS = (
    "crash_holder",
    "crash_root",
    "churn",
    "partition",
    "delay",
    "duplicate",
)

#: Scenarios that kill a node (only meaningful on the counter workload).
CRASH_SCENARIOS = ("crash_holder", "crash_root", "churn")

#: Scenarios that require GWC-family recovery support.
_RECOVERY_SCENARIOS = CRASH_SCENARIOS + ("partition", "duplicate")

WORKLOADS = ("counter", "task_queue")


def require_known(kind: str, value: str, known: Sequence[str]) -> None:
    """Reject an unknown name, in the one diagnostic shape the chaos and
    campaign checks share: ``unknown <kind> 'x'; known: a, b, c``."""
    if value not in known:
        raise FaultError(f"unknown {kind} {value!r}; known: {', '.join(known)}")


#: The deterministic smoke mini-matrix behind ``repro chaos --smoke``:
#: every scenario, both workloads, and one non-GWC system, as
#: ``(system, workload, scenario)`` triples.  Fast enough to run inside
#: the default ``make test``; also the fileset the ``chaos`` golden
#: surface snapshots, so keep it stable.
SMOKE_MATRIX: tuple[tuple[str, str, str], ...] = (
    ("gwc", "counter", "crash_holder"),
    ("gwc_optimistic", "counter", "crash_holder"),
    ("gwc", "counter", "crash_root"),
    ("gwc_optimistic", "counter", "crash_root"),
    ("gwc", "counter", "churn"),
    ("gwc", "counter", "partition"),
    ("gwc", "counter", "duplicate"),
    ("gwc", "task_queue", "delay"),
    ("release", "counter", "delay"),
)


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """One chaos run: workload x system x scenario x seed."""

    system: str = "gwc"
    workload: str = "counter"  # "counter" or "task_queue"
    scenario: str = "crash_holder"
    n_nodes: int = 6
    ops_per_node: int = 8
    seed: int = 0
    #: Explicit schedule; None derives one from the scenario.
    plan: FaultPlan | None = None
    #: Master switch for the recovery stack (leases, retries).  With it
    #: off, a crash scenario must end in the watchdog's StallError
    #: rather than a silent hang.
    recovery: bool = True
    #: Install the root-failover manager (epoch-fenced re-election).
    #: With it off, ``crash_root`` is the negative control: the group
    #: loses its sequencer forever and the watchdog must flag the
    #: resulting stall.
    failover: bool = True
    #: Re-raise StallError instead of recording it in the result.
    raise_on_stall: bool = False
    params: MachineParams = PAPER_PARAMS
    #: Overrides; None derives each from the machine's recovery unit
    #: (the NACK timeout, one safely padded diameter crossing).
    lease_duration: float | None = None
    lock_timeout: float | None = None
    max_retries: int = 12
    watchdog_interval: float | None = None
    max_sim_time: float | None = None
    loss_rate: float = 0.0
    #: Subject failover election traffic to the loss model too
    #: (retransmitted queries/replies stay exempt).
    lossy_failover: bool = False
    #: Network topology (campaign trials sweep this).
    topology: str = "mesh_torus"
    #: Root partitions for the workload group (1 = the classic single
    #: sequencer).  With more, the group becomes a sharded-root family
    #: and the chaos scenarios run against hash-partitioned ownership;
    #: the per-root load columns of the run row then carry one entry
    #: per partition.
    roots: int = 1
    #: Arm the online InvariantMonitor (mutex, epoch/cursor
    #: monotonicity, sequencer gaps, single-writer token integrity); a
    #: violation halts the run with the oracle name and evidence trail
    #: recorded in the result.
    oracles: bool = False
    #: Deliberately lie to the lease reclaimer that every holder is
    #: crashed — the seeded known-bad configuration: the root reclaims
    #: the lock under a live holder, which the armed oracles must catch.
    broken_lease: bool = False
    #: Cap on consecutive live-holder lease extensions per grant.  A
    #: live holder whose release is lost (e.g. dropped by a partition)
    #: extends its lease forever and wedges the lock; after the cap the
    #: root reclaims anyway (epoch-fenced).  Sized far above the
    #: extension depth any healthy run reaches.  None = unbounded (the
    #: pre-campaign behaviour, which a campaign first exposed as a
    #: livelock: trial ring/partition {2,4} starved node 3 to a
    #: LockTimeoutError).
    lease_max_extensions: int | None = 16
    #: Critical-section compute time for the counter workload (None =
    #: the historical 1e-6 s).  The broken-lease acceptance scenario
    #: stretches this past the lease so the reclaim provably lands
    #: mid-section.
    section_time: float | None = None
    system_kwargs: dict[str, Any] = field(default_factory=dict)

    @property
    def has_crashes(self) -> bool:
        """Does the schedule kill a node?  An explicit plan may carry any
        scenario label (campaign trials use ``campaign:<profile>``), so
        its actual event kinds decide, not the label."""
        if self.plan is None:
            return self.scenario in CRASH_SCENARIOS
        return any(event.kind == CRASH for event in self.plan.events)

    def validate(self) -> None:
        """Reject an unrunnable configuration with a :class:`FaultError`.

        The one copy of the chaos input checks: :func:`run_chaos` calls
        it first, and the CLI calls it on every run of a matrix before
        starting any (a failure there is a usage error, exit 2).
        """
        gwc_family = self.system in GWC_FAMILY
        if self.plan is None:
            require_known("scenario", self.scenario, SCENARIOS)
            needs_recovery = self.scenario in _RECOVERY_SCENARIOS
        else:
            needs_recovery = any(
                event.kind != DELAY for event in self.plan.events
            )
        require_known("workload", self.workload, WORKLOADS)
        require_known("system", self.system, system_names())
        if needs_recovery and not gwc_family:
            raise FaultError(
                f"scenario {self.scenario!r} needs the GWC-family recovery "
                f"stack; system {self.system!r} only supports 'delay'"
            )
        if self.workload == "task_queue" and self.has_crashes:
            # A crashed consumer takes its claimed-but-unfinished task
            # with it, so the producer's completion condition can never
            # be met; crash scenarios run on the counter workload.
            raise FaultError(
                "crash scenarios are only meaningful on the counter workload "
                "(a crashed consumer permanently loses its claimed task)"
            )
        if self.broken_lease and not (self.recovery and gwc_family):
            raise FaultError(
                "broken_lease needs the lease machinery: recovery=True and a "
                "GWC-family system"
            )


@dataclass(slots=True)
class ChaosResult:
    """Observations from one chaos run."""

    config: ChaosConfig
    ok: bool
    elapsed: float
    final_counter: int
    chain_length: int
    converged: bool
    lock_requests: int
    lock_timeouts: int
    lock_retries: int
    fault_summary: dict[str, Any]
    #: Seconds from each holder crash to the lease reclaim.
    recovery_times: tuple[float, ...]
    messages: int
    dropped: int
    stall: str | None = None
    #: Messages sequenced by each root partition of the workload group
    #: over the whole run (one entry per sibling subgroup, partition
    #: order).  Single-root groups report a 1-tuple.
    root_loads: tuple[int, ...] = (0,)
    invariant_errors: list[str] = field(default_factory=list)
    #: Name of the online oracle that halted the run (None = none did).
    oracle: str | None = None
    #: The monitor's observation trail ending in the violation.
    oracle_evidence: tuple[str, ...] = ()

    def csv_row(self) -> dict[str, Any]:
        """This run on the shared chaos-run schema (``to_csv`` reads it)."""
        return chaos_csv_row(self)

    def fingerprint(self) -> tuple:
        """Deterministic signature for same-seed reproducibility checks."""
        return (
            self.elapsed,
            self.final_counter,
            self.chain_length,
            self.lock_requests,
            self.lock_timeouts,
            self.lock_retries,
            self.messages,
            self.dropped,
            self.root_loads,
            tuple(sorted(self.fault_summary.items())),
        )


def chaos_csv_row(
    result: ChaosResult, prefix: dict[str, Any] | None = None
) -> dict[str, Any]:
    """One chaos run as a flat CSV/JSON row on the shared run schema.

    Shared by the ``repro chaos --csv`` export, the ``chaos`` and
    ``failover`` golden surfaces, and (with a ``prefix`` of
    trial-context columns) every ``repro campaign`` summary row — one
    column list, defined once as
    :data:`repro.metrics.export.CHAOS_RUN_FIELDS`.  Every field is a
    deterministic function of ``(config, seed)`` — simulated time,
    never wall-clock.
    """
    from repro.metrics.export import chaos_run_row

    cfg = result.config
    summary = result.fault_summary
    return chaos_run_row(
        {
            "system": cfg.system,
            "workload": cfg.workload,
            "scenario": cfg.scenario,
            "seed": cfg.seed,
            "ok": result.ok,
            "final_counter": result.final_counter,
            "chain_length": result.chain_length,
            "converged": result.converged,
            "lock_requests": result.lock_requests,
            "lock_timeouts": result.lock_timeouts,
            "lock_retries": result.lock_retries,
            "lock_reclaims": summary["lock_reclaims"],
            "failovers": summary["failovers"],
            "stale_epoch_discards": summary["stale_epoch_discards"],
            "rerouted_requests": summary["rerouted_requests"],
            "window_discards": summary["window_discards"],
            "recovery_time_mean_s": (
                sum(result.recovery_times) / len(result.recovery_times)
                if result.recovery_times
                else 0.0
            ),
            "messages": result.messages,
            "dropped": result.dropped,
            "fault_dropped": summary["fault_dropped"],
            "fault_delayed": summary["fault_delayed"],
            "fault_duplicated": summary["fault_duplicated"],
            "root_count": len(result.root_loads),
            "root_load_max": max(result.root_loads, default=0),
            "root_load_mean": (
                sum(result.root_loads) / len(result.root_loads)
                if result.root_loads
                else 0.0
            ),
            "stall": result.stall or "",
        },
        prefix=prefix,
    )


def _chaos_counter_worker(
    node: NodeHandle,
    system: Any,
    section: Section,
    ops: int,
    think_time: float,
) -> "Generator":  # noqa: F821
    """Counter worker with restart-resumable progress in ``node.locals``.

    ``_done`` advances in the same simulator event as the section's
    commit, so a crash never lands between an increment and its
    bookkeeping — a restarted node redoes exactly its unfinished ops.
    """
    while node.locals["_done"] < ops:
        yield from node.busy(think_time, kind="useful")
        yield from system.run_section(node, section)
        node.locals["_done"] += 1


def _default_plan(
    config: ChaosConfig, unit: float, lock: str, group: str
) -> FaultPlan:
    """Derive a schedule for the named scenario, scaled by ``unit``."""
    scenario = config.scenario
    n = config.n_nodes
    if scenario == "crash_holder":
        # The injector retries until the lock actually has a holder, so
        # an early nominal time reliably hits mid-critical-section.
        return FaultPlan([crash(10 * unit, holder_of=lock)], seed=config.seed)
    if scenario == "crash_root":
        # Kills the group's sequencer while some *other* node holds the
        # lock (the injector retries until that shape holds), forcing a
        # failover that must rebuild both the sequence space and the
        # lock table mid-critical-section.
        return FaultPlan([crash(10 * unit, root_of=group)], seed=config.seed)
    if scenario == "churn":
        victim = n - 1
        return FaultPlan(
            [
                crash(10 * unit, node=victim),
                restart(40 * unit, node=victim),
            ],
            seed=config.seed,
        )
    if scenario == "partition":
        island = tuple(range(max(1, n - 2), n))
        return FaultPlan(
            [partition(10 * unit, nodes=island, until=50 * unit)],
            seed=config.seed,
        )
    if scenario == "delay":
        return FaultPlan(
            [
                delay(
                    5 * unit,
                    extra=4 * unit,
                    until=400 * unit,
                    jitter=0.5,
                    probability=0.5,
                )
            ],
            seed=config.seed,
        )
    if scenario == "duplicate":
        return FaultPlan(
            [duplicate(5 * unit, until=400 * unit, probability=0.5)],
            seed=config.seed,
        )
    raise FaultError(f"scenario {scenario!r} has no default plan")


def _verify_chain_crash_tolerant(
    chain: "list[tuple[Any, Any]]", crashes: int
) -> int:
    """Check an RMW chain, excusing up to ``crashes`` crash-lost writes.

    A break where the new read equals the *previous entry's own read* is
    the signature of exactly one lost write (the crashed holder's update
    never left its node, so the next holder re-read what the crashed one
    had read).  Any other break — or more breaks than fired crashes —
    still raises :class:`~repro.errors.ConsistencyError`.  Returns the
    number of excused lost updates.
    """
    from repro.errors import ConsistencyError

    expected: Any = 0
    lost = 0
    for i, (read_value, written_value) in enumerate(chain):
        if read_value != expected:
            if lost < crashes and i > 0 and read_value == chain[i - 1][0]:
                lost += 1
            else:
                raise ConsistencyError(
                    f"update #{i} read {read_value!r} but the previous "
                    f"write was {expected!r} (lost update beyond the "
                    f"{crashes} crash-excusable)"
                )
        expected = written_value
    return lost


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Run one seeded chaos schedule and verify the invariants."""
    config.validate()
    gwc_family = config.system in GWC_FAMILY
    has_crashes = config.has_crashes

    checker = MutualExclusionChecker()
    machine = DSMMachine(
        n_nodes=config.n_nodes,
        topology=config.topology,
        params=config.params,
        seed=config.seed,
        checker=checker,
        loss_rate=config.loss_rate,
        lossy_failover=config.lossy_failover,
        reliable=True,
    )
    unit = machine.nack_timeout

    root_nodes = tuple(
        (k * config.n_nodes) // config.roots for k in range(config.roots)
    )
    if config.workload == "counter":
        group, lock, var = counter_wl.GROUP, counter_wl.LOCK, counter_wl.COUNTER
        machine.create_group(group, roots=root_nodes)
        machine.declare_variable(group, var, 0, mutex_lock=lock)
        machine.declare_lock(group, lock, protects=(var,), data_bytes=8)
    else:
        group, lock = tq_wl.GROUP, tq_wl.LOCK
        machine.create_group(group, root=0)
        machine.declare_variable(group, tq_wl.PRODUCED, 0)
        machine.declare_variable(group, tq_wl.TAKEN, 0, mutex_lock=lock)
        machine.declare_variable(group, tq_wl.COMPLETED, 0, mutex_lock=lock)
        machine.declare_lock(
            group, lock, protects=(tq_wl.TAKEN, tq_wl.COMPLETED), data_bytes=768
        )

    plan = config.plan if config.plan is not None else _default_plan(
        config, unit, lock, group
    )
    injector = FaultInjector(machine, plan)

    retry = None
    if config.recovery and gwc_family:
        lease = (
            config.lease_duration
            if config.lease_duration is not None
            else 10.0 * unit
        )
        timeout = (
            config.lock_timeout if config.lock_timeout is not None else 40.0 * unit
        )
        retry = LockRetryPolicy(timeout=timeout, max_retries=config.max_retries)
        is_crashed = injector.is_crashed
        if config.broken_lease:
            # The known-bad configuration: the reclaimer believes every
            # holder is dead, so leases expire under live holders.
            is_crashed = lambda node: True  # noqa: E731
        # Every sibling partition's root sequences its own slice of the
        # group, so each needs the recovery hooks (single-root groups
        # have exactly one engine here).
        for engine in machine.engines_for(group):
            engine.configure_lock_recovery(
                lease_duration=lease,
                is_crashed=is_crashed,
                max_extensions=config.lease_max_extensions,
            )
    injector.install()
    if config.failover and gwc_family:
        RootFailoverManager(machine, injector).install()
    monitor = None
    if config.oracles:
        from repro.consistency.oracles import InvariantMonitor

        monitor = InvariantMonitor(
            machine, interval=5.0 * unit, injector=injector
        )
        monitor.install()

    system_kwargs = dict(config.system_kwargs)
    if gwc_family:
        system_kwargs["lock_retry"] = retry
    system = make_system(config.system, machine, **system_kwargs)

    total_ops = config.ops_per_node
    if config.workload == "counter":
        section = Section(
            lock=lock,
            body=counter_wl._increment_body,
            shared_reads=(var,),
            shared_writes=(var,),
            label="chaos-increment",
        )
        think_time = 10e-6
        section_time = (
            config.section_time if config.section_time is not None else 1e-6
        )
        for node in machine.nodes:
            node.locals["_update_time"] = section_time
            node.locals["_done"] = 0
            process = machine.spawn(
                _chaos_counter_worker(node, system, section, total_ops, think_time),
                name=f"chaos-counter-{node.id}",
            )
            injector.track_process(node.id, process)

            def respawn(node: NodeHandle = node) -> None:
                proc = machine.spawn(
                    _chaos_counter_worker(
                        node, system, section, total_ops, think_time
                    ),
                    name=f"chaos-counter-{node.id}-respawn",
                )
                injector.track_process(node.id, proc)

            injector.register_respawn(node.id, respawn)
    else:
        tq_config = tq_wl.TaskQueueConfig(
            system=config.system,
            n_nodes=config.n_nodes,
            total_tasks=config.ops_per_node * (config.n_nodes - 1),
            seed=config.seed,
        )
        producer = machine.nodes[0]
        process = machine.spawn(
            tq_wl._producer(producer, system, tq_config), name="chaos-producer"
        )
        injector.track_process(0, process)
        for node in machine.nodes[1:]:
            process = machine.spawn(
                tq_wl._consumer(node, system, tq_config),
                name=f"chaos-consumer-{node.id}",
            )
            injector.track_process(node.id, process)

    interval = (
        config.watchdog_interval
        if config.watchdog_interval is not None
        else 200.0 * unit
    )
    if config.max_sim_time is not None:
        budget = config.max_sim_time
    elif config.scenario == "crash_root" and not config.failover:
        # Negative control: with no failover manager the group's
        # sequencer is gone for good.  Client retries would only raise
        # LockTimeoutError after ~4100 units of backoff; a tight budget
        # makes the watchdog's StallError fire first, deterministically
        # (normal failover runs converge well under this).
        budget = 1000.0 * unit
    else:
        budget = 0.05
    watchdog = Watchdog(
        machine.sim, interval=interval, max_sim_time=budget, patience=3
    )
    watchdog.arm()

    stall: str | None = None
    violation: InvariantViolationError | None = None
    try:
        machine.run()
    except StallError as exc:
        if config.raise_on_stall:
            raise
        stall = str(exc)
    except InvariantViolationError as exc:
        violation = exc
    watchdog.disarm()
    if monitor is not None and violation is None:
        monitor.armed = False
        try:
            # One final sweep over the end state (a violation that
            # manifested after the last scheduled sweep).
            monitor.check_now()
        except InvariantViolationError as exc:
            violation = exc
    halted = stall is not None or violation is not None

    invariant_errors: list[str] = []
    if violation is not None:
        invariant_errors.append(str(violation))
    final_counter = 0
    chain_length = 0
    converged = False
    if config.workload == "counter":
        chain = checker.chains.get(counter_wl.COUNTER, [])
        chain_length = len(chain)
        live = [n for n in machine.nodes if n.id not in injector.crashed]
        values = [n.store.read(counter_wl.COUNTER) for n in live]
        final_counter = max(values) if values else 0
        converged = bool(values) and all(v == values[0] for v in values)
        lost_to_crashes = 0
        try:
            if has_crashes:
                # A holder that crashes after its read-modify-write but
                # before the sequenced apply propagates loses that write
                # — inherent to crash-stop write-behind, not a protocol
                # bug.  Excuse at most one such break per fired crash.
                lost_to_crashes = _verify_chain_crash_tolerant(
                    chain, injector.crashes
                )
            else:
                checker.verify_chain(counter_wl.COUNTER, 0)
        except Exception as exc:  # ConsistencyError — keep the report going
            invariant_errors.append(str(exc))
        if not halted:
            expected_final = chain_length - lost_to_crashes
            # The last chain entry's write can also be lost to a crash
            # with no later read to expose it (a lost tail write).
            tail_slack = 1 if injector.crashes > lost_to_crashes else 0
            if not (
                expected_final - tail_slack <= final_counter <= expected_final
            ):
                invariant_errors.append(
                    f"final counter {final_counter} != RMW chain length "
                    f"{chain_length} (lost or phantom update)"
                )
            if not converged and config.system != "entry":
                # Entry consistency ships data with lock grants, so only
                # the last holder is expected to have the final value.
                invariant_errors.append(
                    f"live nodes did not converge: {values}"
                )
    else:
        chain_length = len(checker.spans)
        completed = machine.nodes[0].store.read(tq_wl.COMPLETED)
        final_counter = completed
        total = config.ops_per_node * (config.n_nodes - 1)
        converged = completed == total
        if not halted and completed != total:
            invariant_errors.append(
                f"completed {completed} of {total} tasks"
            )
    if not halted:
        try:
            checker.verify_no_occupancy()
        except Exception as exc:
            invariant_errors.append(str(exc))

    metrics = machine.metrics
    stats = machine.network.stats
    return ChaosResult(
        config=config,
        ok=stall is None and not invariant_errors,
        elapsed=machine.sim.now,
        final_counter=final_counter,
        chain_length=chain_length,
        converged=converged,
        lock_requests=metrics.total_counter("lock.requests"),
        lock_timeouts=metrics.total_counter("lock.timeouts"),
        lock_retries=metrics.total_counter("lock.retries"),
        fault_summary=injector.summary(),
        recovery_times=tuple(injector.recovery_times),
        messages=stats.messages,
        dropped=stats.dropped,
        stall=stall,
        root_loads=tuple(
            engine.locally_sequenced for engine in machine.engines_for(group)
        ),
        invariant_errors=invariant_errors,
        oracle=violation.oracle if violation is not None else None,
        oracle_evidence=(
            violation.evidence if violation is not None else ()
        ),
    )
