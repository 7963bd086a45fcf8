"""Optimistic mutual exclusion — Section 4, Figures 4 and 5 of the paper.

The runner executes one critical section per call, mirroring the
compiler-generated code of Figure 4 line by line:

* (01)       refuse nested re-acquisition;
* (02)-(04)  atomically exchange the local lock copy with the negated
             node id, which also forwards the request to the group root;
* (05)       fold the swapped-out value into the usage-frequency history;
* (06)       arm the lock-change interrupt, atomically coupled with
             insharing suspension (done inside one simulator event);
* (07)       if the local copy, the old value, or the history indicate
             recent use, take the **regular** path: disarm, wait for the
             grant, run the body, release;
* (14)-(16)  otherwise save rollback state and set ``variables_saved``;
* (17)-(18)  run the body speculatively — its shared writes travel to
             the root, which discards them if this node is not (yet) the
             holder;
* (19)       wait for the lock answer;
* (22)-(26)  on conflict, roll back: restore saved values, resume
             insharing, wait for the grant, re-execute the body;
* (27)       release.

The interrupt handler is Figure 5: a grant to this node or a transient
*free* lets execution continue (the free re-arms the interrupt); a grant
to another node records a busy history sample and triggers rollback if
variables were saved, or just a regular wait if not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.core.node import NodeHandle
from repro.core.section import (
    Section,
    SectionContext,
    SectionOutcome,
    restore_from_rollback,
    snapshot_for_rollback,
)
from repro.errors import LockError, LockNestingError
from repro.locks.history import SAMPLE_BUSY, SAMPLE_FREE, UsageHistory
from repro.memory.varspace import (
    FREE_VALUE,
    grant_value,
    holder_of,
    request_value,
    requester_of,
)
from repro.sim.waiters import Future, Signal

#: Verdicts the interrupt handler can deliver to the waiting runner.
_GRANTED = "granted"
_CONFLICT = "conflict"
_CONFLICT_UNSAVED = "conflict_unsaved"

#: ``force`` values accepted by :class:`OptimisticConfig`.
FORCE_OPTIMISTIC = "optimistic"
FORCE_REGULAR = "regular"


#: Wait modes for the blocking (regular / post-rollback) path.
WAIT_SPIN = "spin"
WAIT_SWAP = "swap"


@dataclass(frozen=True, slots=True)
class OptimisticConfig:
    """Tunables for the optimistic protocol.

    Attributes:
        decay: EWMA decay for the usage history (paper example: 0.95).
        threshold: History value above which the regular path is taken
            (paper example: 0.30).
        force: ``"optimistic"`` or ``"regular"`` to override the history
            test for ablation runs; None for the paper's behaviour.
        wait_mode: What a blocked processor does while waiting for its
            grant — ``"spin"`` (busy wait / sleep) or ``"swap"``
            (context-swap to queued background work), the paper's
            "wait or context swap" choice.
        swap_overhead: Context-switch cost per swap, seconds.
    """

    decay: float = 0.95
    threshold: float = 0.30
    force: str | None = None
    wait_mode: str = WAIT_SPIN
    swap_overhead: float = 1e-6

    def __post_init__(self) -> None:
        if self.force not in (None, FORCE_OPTIMISTIC, FORCE_REGULAR):
            raise LockError(f"unknown force mode {self.force!r}")
        if self.wait_mode not in (WAIT_SPIN, WAIT_SWAP):
            raise LockError(f"unknown wait mode {self.wait_mode!r}")
        if self.swap_overhead < 0:
            raise LockError(f"swap_overhead must be >= 0: {self.swap_overhead}")


class OptimisticMutexRunner:
    """Executes critical sections under optimistic mutual exclusion."""

    def __init__(self, system: "OptimisticGwcSystem", config: OptimisticConfig) -> None:  # noqa: F821
        self.system = system
        self.config = config
        self._histories: dict[tuple[int, str], UsageHistory] = {}

    def history(self, node_id: int, lock: str) -> UsageHistory:
        """The per-(node, lock) usage-frequency history."""
        key = (node_id, lock)
        hist = self._histories.get(key)
        if hist is None:
            hist = UsageHistory(
                decay=self.config.decay, threshold=self.config.threshold
            )
            self._histories[key] = hist
        return hist

    @staticmethod
    def _held_by_other(lock_value: Any, node: NodeHandle) -> bool:
        holder = holder_of(lock_value)
        return holder is not None and holder != node.id

    def run_section(
        self, node: NodeHandle, section: Section
    ) -> Generator[Any, Any, SectionOutcome]:
        lock = section.lock
        store, iface, sim = node.store, node.iface, node.sim
        mine = grant_value(node.id)

        # (01) prevent nested re-acquisition: the local copy naming this
        # CPU — as holder or as pending requester — means the section is
        # already being entered ("Cannot safely nest mutex lock requests").
        current = store.read(lock)
        if holder_of(current) == node.id or requester_of(current) == node.id:
            raise LockNestingError(
                f"node {node.id} cannot safely nest mutex requests for {lock!r}"
            )

        history = self.history(node.id, lock)

        # Epoch fencing: active with a failover manager installed or
        # online re-partitioning armed.  A sequencer epoch change voids
        # this request's speculation — the old owner's answer (and any
        # speculative writes it accepted) is fenced out, and the new
        # owner discards old-epoch traffic — so an epoch change is
        # handled exactly like a conflict: roll back and re-run on the
        # regular path.
        fence_group: str | None = None
        entry_epoch = 0
        if self.system.machine.epoch_fencing:
            fence_group = iface.group_of(lock).name
            entry_epoch = iface._epoch[fence_group]

        # (02)-(04) request the lock; atomic with reading the old value.
        old_val = iface.atomic_exchange(lock, request_value(node.id))
        node.metrics.count("lock.requests")

        # (05) usage-frequency history from the swapped-out value.
        history.update(
            SAMPLE_BUSY if self._held_by_other(old_val, node) else SAMPLE_FREE
        )

        # (06) arm interrupt-and-sharing-suspension (Figure 5).
        state: dict[str, Any] = {"saved": False, "grant_seen": None}
        verdict: Future = Future(name=f"n{node.id}.{lock}.verdict")
        abort = Signal(name=f"n{node.id}.{lock}.abort")

        def handler(value: Any) -> None:
            # Insharing is suspended and the interrupt disarmed on entry.
            if (
                fence_group is not None
                and not verdict.resolved
                and iface._epoch[fence_group] != entry_epoch
            ):
                # First lock write under a new sequencer epoch (often the
                # takeover's rebuilt grant): abort the speculation even
                # if the write names this node — accepting a new-epoch
                # grant would commit writes the old root discarded.
                node.metrics.count("opt.epoch_conflicts")
                if state["saved"]:
                    verdict.resolve(_CONFLICT)
                    abort.fire(_CONFLICT)
                else:
                    iface.resume_insharing()
                    verdict.resolve(_CONFLICT_UNSAVED)
                return
            if value == mine:
                state["grant_seen"] = sim.now
                iface.resume_insharing()
                verdict.resolve(_GRANTED)
            elif value == FREE_VALUE:
                # Transient flicker (typically the echo of this node's own
                # previous release): keep speculating.
                node.metrics.count("opt.flickers")
                iface.arm_lock_interrupt(lock, handler)
                iface.resume_insharing()
            else:
                # Another processor got the lock (Figure 5's else branch).
                history.update(SAMPLE_BUSY)
                node.metrics.count("opt.conflicts")
                if state["saved"]:
                    # Stay suspended; the runner performs the rollback.
                    verdict.resolve(_CONFLICT)
                    abort.fire(_CONFLICT)
                else:
                    iface.resume_insharing()
                    verdict.resolve(_CONFLICT_UNSAVED)

        iface.arm_lock_interrupt(lock, handler)

        # (07) does anything indicate current or recent locking?
        local_now = store.read(lock)
        usage = (
            self._held_by_other(local_now, node)
            or self._held_by_other(old_val, node)
            or history.indicates_usage()
        )
        if self.config.force == FORCE_OPTIMISTIC:
            usage = self._held_by_other(local_now, node) or self._held_by_other(
                old_val, node
            )
        elif self.config.force == FORCE_REGULAR:
            usage = True

        if usage:
            # (08)-(12) the regular path.
            node.metrics.count("opt.regular_path")
            iface.disarm_lock_interrupt(lock)
            yield from self._wait_for_grant(node, lock, mine)
            node.metrics.count("lock.acquired")
            outcome = yield from self.system._run_body_held(node, section)
            yield from self.system.release(node, lock)
            return outcome

        # (13)-(16) optimistic: save rollback state.
        node.metrics.count("opt.attempts")
        saved = snapshot_for_rollback(node, section)
        save_cost = node.params.memory_time(section.save_bytes())
        yield from node.busy(save_cost, kind="overhead")

        if verdict.resolved and verdict.value == _CONFLICT_UNSAVED:
            # Another CPU took the lock while we were saving (Figure 5,
            # variables_saved == NO): nothing to roll back, regular wait.
            return (yield from self._finish_after_conflict(node, section, mine))

        state["saved"] = True

        # (17)-(18) speculative body execution.  Shared writes pass
        # through the group root, which discards them if the lock request
        # has not been granted yet.
        ctx = SectionContext(
            node,
            write_through=lambda var, value: self.system.section_write(
                node, var, value
            ),
            abort=abort,
        )
        result = yield from section.body(ctx)

        # (19) wait until the lock answer arrives.
        if not verdict.resolved:
            yield verdict
        answer = verdict.value
        if (
            answer == _GRANTED
            and fence_group is not None
            and iface._epoch[fence_group] != entry_epoch
        ):
            # Granted under the old epoch, then the root failed over
            # before commit: the speculative writes' fate is ambiguous,
            # so take the conflict path (the rebuilt lock table re-grants
            # from this node's own evidence, so the regular re-run
            # proceeds without a new round trip).
            node.metrics.count("opt.epoch_conflicts")
            answer = _CONFLICT

        if answer == _GRANTED:
            # (21) -> (27): speculation succeeded; all computation was
            # useful and already overlapped the lock round-trip.
            node.metrics.add_time("useful", ctx.elapsed, end=sim.now)
            node.metrics.count("opt.successes")
            node.metrics.count("lock.acquired")
            checker = self.system.machine.checker
            if checker is not None:
                # The committed execution serializes at the grant.
                checker.enter(lock, node.id, state["grant_seen"])
                for counter, read_value, written_value in ctx.rmw_observations:
                    checker.observe_rmw(counter, read_value, written_value)
                checker.exit(lock, node.id, sim.now)
            yield from self.system.release(node, lock)
            return SectionOutcome(
                optimistic=True,
                rolled_back=False,
                useful_time=ctx.elapsed,
                result=result,
            )

        # (22)-(26) conflict: roll back and retry on the regular path.
        node.metrics.add_time("wasted", ctx.elapsed, end=sim.now)
        node.metrics.count("opt.rollbacks")
        restore_cost = node.params.memory_time(section.save_bytes())
        yield from node.busy(restore_cost, kind="overhead")
        restore_from_rollback(node, section, saved)
        iface.resume_insharing()
        wasted = ctx.elapsed
        outcome = yield from self._finish_after_conflict(node, section, mine)
        outcome.rolled_back = True
        outcome.wasted_time = wasted
        return outcome

    def _wait_for_grant(
        self, node: NodeHandle, lock: str, mine: int
    ) -> Generator[Any, Any, Any]:
        """Block until the grant — spinning or context-swapping.

        When the system carries a lock retry policy, the wait instead
        goes through the timed client path (timeout, withdraw, backoff,
        re-request) so the regular path inherits crash and partition
        tolerance; the spin/swap cost model applies only to the
        block-forever protocol.
        """
        if self.system.lock_retry is not None:
            return (yield from self.system._client(lock).await_grant(node))
        if self.config.wait_mode == WAIT_SWAP:
            return (
                yield from node.wait_until_with_swap(
                    lock, lambda v: v == mine, self.config.swap_overhead
                )
            )
        return (yield from node.store.wait_until(lock, lambda v: v == mine))

    def _finish_after_conflict(
        self, node: NodeHandle, section: Section, mine: int
    ) -> Generator[Any, Any, SectionOutcome]:
        """reg-wait, regular body execution, and release."""
        yield from self._wait_for_grant(node, section.lock, mine)
        node.metrics.count("lock.acquired")
        outcome = yield from self.system._run_body_held(node, section)
        outcome.optimistic = True
        yield from self.system.release(node, section.lock)
        return outcome
