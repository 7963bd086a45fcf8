"""Executes a :class:`~repro.faults.plan.FaultPlan` against a machine.

The injector hooks three places:

* **Network send** — :meth:`FaultInjector.on_send` is consulted on every
  :meth:`Network.send`; it drops messages to/from crashed nodes and
  across partitions, and applies delay/duplicate faults.
* **Network delivery** — :meth:`FaultInjector.guard_delivery` wraps each
  resolved delivery handler so messages already *in flight* when their
  destination crashes are discarded (a crash takes the whole node out,
  including packets sitting in its input queue).
* **Scheduler** — :meth:`crash_node` kills the crashed node's tracked
  simulated processes (see :meth:`track_process`), so it stops
  scheduling work, and tells the mutual-exclusion checker about the
  forced exits.

Restart model: the node's sharing interface is reset and its group
state replayed from each group root's authoritative image
(re-insharing), with its apply stream cursor fast-forwarded to the
root's current sequence number.  The transfer is modelled as
out-of-band (no wire cost) — the interesting dynamics are in the
protocol recovery around it, not in the bulk copy.

A *root* crash takes the group's sequencer and lock manager down with
it.  With a :class:`~repro.faults.failover.RootFailoverManager`
installed (see :meth:`add_crash_listener`), a successor is elected and
the sequencer state reconstructed from member evidence; without one, a
root crash is unrecoverable — requesters ride out the unreachability
window with timeouts and retries until their budgets exhaust, and a
restart that would need the dead root as its re-inshare source raises
:class:`~repro.errors.RootFailoverError` instead of hanging.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.errors import FaultError
from repro.faults.plan import (
    CRASH,
    DELAY,
    DUPLICATE,
    HEAL,
    PARTITION,
    RESTART,
    FaultEvent,
    FaultPlan,
)
from repro.net.message import Message

#: A crash aimed at ``holder_of=<lock>`` (or ``root_of=<group>``)
#: retries this many times (at short intervals) waiting for the lock to
#: have a holder; a restart blocked on a crashed root retries on the
#: same cadence waiting for failover to install a successor.
_HOLDER_RETRIES = 100_000
_HOLDER_RETRY_INTERVAL = 2e-6


class FaultInjector:
    """Applies one fault plan to one :class:`~repro.core.machine.DSMMachine`."""

    def __init__(self, machine: "DSMMachine", plan: FaultPlan) -> None:  # noqa: F821
        plan.validate(machine.n_nodes)
        self.machine = machine
        self.plan = plan
        self.sim = machine.sim
        self.network = machine.network
        self.rng = self.sim.rng.stream(f"faults.plan{plan.seed}")
        self.installed = False
        #: Crash state.
        self.crashed: set[int] = set()
        self.crash_times: dict[int, float] = {}
        #: Active partitions: one frozenset per cut (messages crossing
        #: the boundary of any active cut are dropped).
        self._partitions: list[frozenset[int]] = []
        self._active_delays: list[FaultEvent] = []
        self._active_duplicates: list[FaultEvent] = []
        #: Per-node simulated processes to kill on crash and respawn
        #: factories to call on restart.
        self._tracked: dict[int, list["Process"]] = {}  # noqa: F821
        self._respawn: dict[int, Callable[[], None]] = {}
        #: Crash observers (the root failover manager registers here).
        self._crash_listeners: list[Callable[[int], None]] = []
        #: Set by :meth:`RootFailoverManager.install`; gates the
        #: restart-past-a-dead-root retry path.
        self.failover_manager: Any = None
        #: Fault/recovery observations.
        self.crashes = 0
        self.restarts = 0
        self.partitions_cut = 0
        self.partitions_healed = 0
        self.inflight_dropped = 0
        self.lock_reclaims = 0
        #: Seconds from a holder's crash to its lock being reclaimed.
        self.recovery_times: list[float] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Hook the network and schedule every plan event."""
        if self.installed:
            raise FaultError("fault injector already installed")
        self.installed = True
        self.network.install_injector(self)
        for engine in self._root_engines():
            for manager in engine.lock_managers.values():
                manager.on_reclaim = self._note_reclaim
        for event in self.plan.events:
            self.sim.at(event.time, partial(self._fire, event))

    def track_process(self, node: int, process: "Process") -> None:  # noqa: F821
        """Register a simulated process to be killed when ``node`` crashes."""
        self._tracked.setdefault(node, []).append(process)

    def register_respawn(self, node: int, fn: Callable[[], None]) -> None:
        """Register a callback invoked after ``node`` restarts."""
        self._respawn[node] = fn

    def add_crash_listener(self, fn: Callable[[int], None]) -> None:
        """Register ``fn(node)`` to run whenever a node crashes."""
        self._crash_listeners.append(fn)

    def is_crashed(self, node: int) -> bool:
        return node in self.crashed

    def _root_engines(self) -> list[Any]:
        return [self.machine.root_engine(name) for name in self.machine.groups]

    # ------------------------------------------------------------------
    # Network hooks
    # ------------------------------------------------------------------

    def on_send(self, msg: Message) -> tuple[float, int, bool] | None:
        """Verdict for one outbound message.

        Returns ``None`` to pass the message through untouched (the
        common case, kept allocation-free), or a tuple
        ``(extra_delay, copies, preserve_fifo)`` — ``copies == 0``
        means drop.
        """
        if not (
            self.crashed
            or self._partitions
            or self._active_delays
            or self._active_duplicates
        ):
            return None
        src = msg.src
        dst = msg.dst
        if src in self.crashed or dst in self.crashed:
            return (0.0, 0, True)
        for side in self._partitions:
            if (src in side) != (dst in side):
                return (0.0, 0, True)
        extra = 0.0
        copies = 1
        preserve_fifo = True
        now = self.sim._now
        for event in self._active_delays:
            if event.until is not None and now >= event.until:
                continue
            if event.message_kinds and msg.kind not in event.message_kinds:
                continue
            if event.nodes and src not in event.nodes and dst not in event.nodes:
                continue
            if event.probability < 1.0 and self.rng.random() >= event.probability:
                continue
            amount = event.extra_delay
            if event.jitter > 0.0:
                amount *= 1.0 + event.jitter * self.rng.random()
            extra += amount
            if not event.preserve_fifo:
                preserve_fifo = False
        for event in self._active_duplicates:
            if event.until is not None and now >= event.until:
                continue
            if event.message_kinds and msg.kind not in event.message_kinds:
                continue
            if event.probability < 1.0 and self.rng.random() >= event.probability:
                continue
            copies = max(copies, event.copies)
        if extra == 0.0 and copies == 1:
            return None
        return (extra, copies, preserve_fifo)

    def guard_delivery(
        self, dst: int, fn: Callable[[Message], None]
    ) -> Callable[[Message], None]:
        """Wrap a delivery handler to drop in-flight traffic to a dead node."""

        def guarded(msg: Message) -> None:
            if dst in self.crashed:
                self.inflight_dropped += 1
                return
            fn(msg)

        return guarded

    # ------------------------------------------------------------------
    # Fault execution
    # ------------------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == CRASH:
            if event.node is not None:
                self.crash_node(event.node)
            elif event.holder_of is not None:
                self._crash_holder(event.holder_of, _HOLDER_RETRIES)
            else:
                self._crash_root(event.root_of, _HOLDER_RETRIES)
        elif kind == RESTART:
            self.restart_node(event.node)
        elif kind == PARTITION:
            self._partitions.append(frozenset(event.nodes))
            self.partitions_cut += 1
            if event.until is not None:
                self.sim.at(event.until, partial(self._heal, frozenset(event.nodes)))
        elif kind == HEAL:
            self._heal(frozenset(event.nodes))
        elif kind == DELAY:
            self._active_delays.append(event)
            if event.until is not None:
                self.sim.at(
                    event.until, partial(self._active_delays.remove, event)
                )
        elif kind == DUPLICATE:
            self._active_duplicates.append(event)
            if event.until is not None:
                self.sim.at(
                    event.until, partial(self._active_duplicates.remove, event)
                )

    def _crash_holder(self, lock: str, budget: int) -> None:
        """Crash the current holder of ``lock``; retry while it is free.

        "Holding" requires both the root's view (``manager.holder``) and
        the node's own local lock copy to agree the node has the grant —
        the local copy flips to FREE the instant the node releases, so
        this pins the crash genuinely mid-critical-section rather than
        in the release-in-flight window (where killing the node changes
        nothing: its release is already on the wire).
        """
        from repro.memory.varspace import grant_value

        manager = self._find_manager(lock)
        holder = manager.holder
        if (
            holder is not None
            and holder not in self.crashed
            and self.machine.nodes[holder].store.read(lock) == grant_value(holder)
        ):
            self.crash_node(holder)
            return
        if budget <= 0:
            raise FaultError(
                f"crash(holder_of={lock!r}): lock never had a live holder"
            )
        self.sim.schedule(
            _HOLDER_RETRY_INTERVAL,
            partial(self._crash_holder, lock, budget - 1),
        )

    def _crash_root(self, group_name: str, budget: int) -> None:
        """Crash ``group_name``'s current root mid-critical-section.

        Fires once one of the group's locks is held by a live non-root
        member (retrying briefly otherwise), so the crash lands in the
        window where the failover protocol has real lock state to
        reconstruct — a holder mid-section plus, usually, in-flight
        requests.  ``group.root`` is read at fire time, so after an
        earlier failover this targets the successor.
        """
        from repro.memory.varspace import grant_value

        if group_name not in self.machine.groups:
            raise FaultError(f"crash(root_of=...): no group {group_name!r}")
        # A root-sharded family spreads its locks over sibling subgroups;
        # target whichever sibling root actually sequences a held lock
        # (a family of one degenerates to the classic single root).
        subgroups = self.machine.families.get(group_name, (group_name,))
        for sub_name in subgroups:
            root = self.machine.groups[sub_name].root
            if root in self.crashed:
                continue
            engine = self.machine.nodes[root].iface.root_engines.get(sub_name)
            managers = engine.lock_managers.values() if engine else ()
            for manager in managers:
                holder = manager.holder
                if (
                    holder is not None
                    and holder != root
                    and holder not in self.crashed
                    and self.machine.nodes[holder].store.read(manager.decl.name)
                    == grant_value(holder)
                ):
                    self.crash_node(root)
                    return
        if budget <= 0:
            raise FaultError(
                f"crash(root_of={group_name!r}): no lock of the group was "
                "ever held by a live non-root member"
            )
        self.sim.schedule(
            _HOLDER_RETRY_INTERVAL,
            partial(self._crash_root, group_name, budget - 1),
        )

    def _find_manager(self, lock: str) -> Any:
        for engine in self._root_engines():
            manager = engine.lock_managers.get(lock)
            if manager is not None:
                return manager
        raise FaultError(f"no group declares lock {lock!r}")

    def crash_node(self, node: int) -> None:
        """Take ``node`` down now: kill its processes, isolate its traffic."""
        if node in self.crashed:
            return
        now = self.sim.now
        self.crashed.add(node)
        self.crash_times[node] = now
        self.crashes += 1
        for process in self._tracked.get(node, ()):
            process.kill()
        checker = self.machine.checker
        if checker is not None:
            checker.node_crashed(node, now)
        if self.sim.trace_enabled:
            self.sim.tracer.record(now, "fault.crash", node=node)
        for listener in self._crash_listeners:
            listener(node)

    def restart_node(self, node: int) -> None:
        """Bring a crashed node back with freshly re-inshared group state.

        Re-insharing needs a live authoritative source per group.  When
        a group's root is itself crashed, the restart waits (retrying)
        for the failover manager to install a successor, then replays
        from the successor under its epoch; with no failover manager
        there is nothing to wait for and the restart fails with a clear
        :class:`~repro.errors.RootFailoverError` instead of hanging.
        """
        if node not in self.crashed:
            raise FaultError(f"restart of node {node}, which is not crashed")
        self._restart_attempt(node, _HOLDER_RETRIES)

    def _restart_attempt(self, node: int, budget: int) -> None:
        from repro.errors import RootFailoverError

        handle = self.machine.nodes[node]
        iface = handle.iface
        dead_roots = sorted(
            group.name
            for group in iface.groups.values()
            if group.root != node and group.root in self.crashed
        )
        if dead_roots:
            if self.failover_manager is None:
                raise RootFailoverError(
                    f"cannot restart node {node}: the root(s) of group(s) "
                    f"{dead_roots} are crashed and no failover manager is "
                    "installed, so no live source exists to re-inshare from"
                )
            if budget <= 0:
                raise RootFailoverError(
                    f"restart of node {node} gave up waiting for failover "
                    f"of group(s) {dead_roots}"
                )
            self.sim.schedule(
                _HOLDER_RETRY_INTERVAL,
                partial(self._restart_attempt, node, budget - 1),
            )
            return
        self.crashed.discard(node)
        self.restarts += 1
        iface._suspended = False
        iface._suspended_queue.clear()
        iface._interrupts.clear()
        for group_name, group in iface.groups.items():
            engine = self.machine.root_engine(group_name)
            # Replay the authoritative image (re-insharing) and fast-
            # forward the apply cursor so the node rejoins the sequenced
            # stream at the root's current position — under the root's
            # current epoch, which after a failover is the successor's.
            for var in list(group.variables) + list(group.locks):
                handle.store.declare(var, engine.authoritative_read(var))
            iface._reorder[group_name].clear()
            iface._next_seq[group_name] = engine.sequenced
            iface._epoch[group_name] = engine.epoch
            if iface.nack_timeout is not None:
                for var in list(group.variables) + list(group.locks):
                    iface._applied[var] = engine.authoritative_read(var)
                for lock in group.locks:
                    iface._applied_lock_seq[lock] = engine.sequenced
                iface._last_root[group_name] = group.root
        for engine in self._root_engines():
            engine.emit_heartbeat()
        respawn = self._respawn.get(node)
        if self.sim.trace_enabled:
            self.sim.tracer.record(self.sim.now, "fault.restart", node=node)
        if respawn is not None:
            respawn()

    def _heal(self, side: frozenset[int]) -> None:
        try:
            self._partitions.remove(side)
        except ValueError:
            raise FaultError(
                f"heal of partition {sorted(side)} that is not active"
            ) from None
        self.partitions_healed += 1
        # Healed members may have missed sequenced traffic with nothing
        # further coming; an immediate heartbeat starts NACK catch-up.
        for engine in self._root_engines():
            if engine.group.root not in self.crashed:
                engine.emit_heartbeat()
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now, "fault.heal", nodes=sorted(side)
            )

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def _note_reclaim(
        self, lock: str, old_holder: int, new_holder: int | None, now: float
    ) -> None:
        self.lock_reclaims += 1
        crashed_at = self.crash_times.get(old_holder)
        if crashed_at is not None:
            self.recovery_times.append(now - crashed_at)
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                now,
                "fault.lock_reclaimed",
                lock=lock,
                old_holder=old_holder,
                new_holder=new_holder,
            )

    def summary(self) -> dict[str, Any]:
        """Counters for reports and determinism fingerprints."""
        stats = self.network.stats
        return {
            "crashes": self.crashes,
            "restarts": self.restarts,
            "partitions_cut": self.partitions_cut,
            "partitions_healed": self.partitions_healed,
            "fault_dropped": stats.fault_dropped,
            "fault_delayed": stats.fault_delayed,
            "fault_duplicated": stats.fault_duplicated,
            "inflight_dropped": self.inflight_dropped,
            "lock_reclaims": self.lock_reclaims,
            "recovery_times": tuple(self.recovery_times),
            "failovers": stats.failovers,
            "stale_epoch_discards": stats.stale_epoch_discards,
            "rerouted_requests": stats.rerouted_requests,
            "window_discards": sum(
                engine.window_discards for engine in self._root_engines()
            ),
            "declined_regrants": sum(
                node.iface.declined_regrants for node in self.machine.nodes
            ),
        }
