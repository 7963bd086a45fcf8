"""Group-root failover: the ownership handoff whose source is dead.

The group root is its group's one sequencer and lock manager (Section
4).  When it crashes, :class:`RootFailoverManager` moves its authority
to a successor through the one epoch-fenced handoff
(:meth:`GroupRootEngine.hand_off
<repro.consistency.gwc.GroupRootEngine.hand_off>`, docs/FAULTS.md §4),
and owns only what a dead source needs:

1. **Detection** — after a delay modelling missed heartbeats, an
   election starts for each group the crashed node rooted.
2. **Election** — the successor is the lowest-numbered live member
   (the liveness oracle is shared, so no votes).
3. **Reconstruction** — the successor queries every live member for its
   *sequenced* state (apply cursor, applied image, local lock copies).
   The longest applied prefix supplies the image and the epoch start.
4. **Lock rebuild** — a member whose own copy reads ``grant(self)``
   claims the lock (ties: last applied lock write, then lowest id);
   copies reading ``request(-self)`` refill the queue in id order.
   Rebuilt grants are stamped ``rebuilt`` so an unwilling holder (its
   release died with the old root) declines by re-sharing FREE.
5. **Re-rooting** — the group's tree moves to the successor, whose own
   interface adopts the new epoch before the handoff re-sequences the
   rebuilt image under it.

Everything here is driven by simulator events and the seeded oracle, so
failover runs are as deterministic as any other chaos run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.errors import FaultError, RootFailoverError
from repro.memory.varspace import (
    FREE_VALUE,
    grant_value,
    holder_of,
    requester_of,
)
from repro.net.message import Message

#: Fallback detection delay / query timeout multipliers (x nack_timeout).
_DETECTION_MULT = 3.0
_QUERY_TIMEOUT_MULT = 2.0


@dataclass(frozen=True, slots=True)
class FailoverQuery:
    """Successor -> member: send me your sequenced state for ``group``."""

    group: str
    epoch: int
    successor: int
    #: True on resent queries (exempt from the loss model, like all
    #: recovery retransmissions).
    retransmit: bool = False


@dataclass(frozen=True, slots=True)
class FailoverReply:
    """Member -> successor: sequenced-state evidence for reconstruction."""

    group: str
    member: int
    epoch: int
    #: The member's apply cursor: everything below is applied in order.
    next_seq: int
    #: var -> last *sequenced* value applied here (never speculative).
    image: dict
    #: lock -> the member's local lock copy (claim / request evidence).
    lock_state: dict
    #: lock -> sequence number of the last applied lock write (claim
    #: tie-breaking across epochs of grant history).
    lock_seq: dict
    retransmit: bool = False


class _Election:
    """Mutable state of one in-flight re-election."""

    __slots__ = ("group", "old_root", "successor", "epoch", "replies", "rounds")

    def __init__(self, group: str, old_root: int, successor: int, epoch: int):
        self.group = group
        self.old_root = old_root
        self.successor = successor
        self.epoch = epoch
        self.replies: dict[int, FailoverReply] = {}
        self.rounds = 0


class RootFailoverManager:
    """Elects and installs a successor sequencer for crashed group roots."""

    def __init__(
        self,
        machine: "DSMMachine",  # noqa: F821
        injector: "FaultInjector",  # noqa: F821
        detection_delay: float | None = None,
        query_timeout: float | None = None,
        max_query_rounds: int = 25,
    ) -> None:
        if machine.nack_timeout is None:
            raise FaultError(
                "root failover needs reliability enabled (reliable=True or "
                "loss_rate > 0): member evidence rides the NACK/heartbeat "
                "machinery"
            )
        self.machine = machine
        self.injector = injector
        self.sim = machine.sim
        self.detection_delay = (
            detection_delay
            if detection_delay is not None
            else _DETECTION_MULT * machine.nack_timeout
        )
        self.query_timeout = (
            query_timeout
            if query_timeout is not None
            else _QUERY_TIMEOUT_MULT * machine.nack_timeout
        )
        self.max_query_rounds = max_query_rounds
        self._pending: dict[str, _Election] = {}
        #: Diagnostics.
        self.elections = 0
        self.takeovers = 0
        self.query_rounds = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Hook into the machine's dispatch and the injector's crashes."""
        if self.machine.failover_manager is not None:
            raise FaultError("a root failover manager is already installed")
        self.machine.register_kind_handler("failover", self._on_message)
        self.machine.failover_manager = self
        self.injector.add_crash_listener(self._on_crash)
        self.injector.failover_manager = self

    def _on_message(self, node_id: int, msg: Message) -> None:
        if msg.kind == "failover.query":
            self._on_query(node_id, msg.payload)
        elif msg.kind == "failover.reply":
            self._on_reply(node_id, msg.payload)
        else:
            raise FaultError(f"unknown failover message kind {msg.kind!r}")

    # ------------------------------------------------------------------
    # Detection and election
    # ------------------------------------------------------------------

    def _on_crash(self, node: int) -> None:
        for group in self.machine.groups.values():
            if group.root == node and group.name not in self._pending:
                self.sim.schedule(
                    self.detection_delay,
                    partial(self._start_election, group.name, node),
                )

    def _start_election(self, group_name: str, crashed_root: int) -> None:
        group = self.machine.groups[group_name]
        if group.root != crashed_root or group_name in self._pending:
            return  # Already failed over (or a newer election runs).
        if not self.injector.is_crashed(crashed_root):
            return  # The root restarted within the detection window.
        old_engine = self.machine.nodes[crashed_root].iface.root_engines.get(
            group_name
        )
        if old_engine is not None:
            old_engine.depose()
        live = [m for m in group.members if not self.injector.is_crashed(m)]
        if not live:
            raise RootFailoverError(
                f"group {group_name!r}: root {crashed_root} crashed and no "
                "member is live to succeed it"
            )
        successor = min(live)
        epoch = (old_engine.epoch if old_engine is not None else 0) + 1
        election = _Election(group_name, crashed_root, successor, epoch)
        self._pending[group_name] = election
        self.elections += 1
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now,
                "failover.election",
                group=group_name,
                old_root=crashed_root,
                successor=successor,
                epoch=epoch,
            )
        self._send_queries(election, retransmit=False)

    def _send_queries(self, election: _Election, retransmit: bool) -> None:
        self.query_rounds += 1
        group = self.machine.groups[election.group]
        query = FailoverQuery(
            group=election.group,
            epoch=election.epoch,
            successor=election.successor,
            retransmit=retransmit,
        )
        packet_bytes = self.machine.params.packet_bytes
        for member in group.members:
            if member in election.replies or self.injector.is_crashed(member):
                continue
            self.machine.network.send(
                Message(
                    src=election.successor,
                    dst=member,
                    kind="failover.query",
                    payload=query,
                    size_bytes=packet_bytes,
                )
            )
        self.sim.schedule(
            self.query_timeout, partial(self._query_check, election)
        )

    def _query_check(self, election: _Election) -> None:
        if self._pending.get(election.group) is not election:
            return  # Takeover already happened.
        if self.injector.is_crashed(election.successor):
            # The successor died mid-election: re-elect from scratch.
            del self._pending[election.group]
            self._start_election(election.group, election.old_root)
            return
        election.rounds += 1
        if election.rounds >= self.max_query_rounds:
            raise RootFailoverError(
                f"group {election.group!r}: reconstruction quorum never "
                f"assembled after {election.rounds} query rounds "
                f"(replies from {sorted(election.replies)})"
            )
        if not self._maybe_takeover(election):
            self._send_queries(election, retransmit=True)

    # ------------------------------------------------------------------
    # Member evidence
    # ------------------------------------------------------------------

    def _on_query(self, member: int, query: FailoverQuery) -> None:
        if self.injector.is_crashed(member):
            return
        group = self.machine.groups[query.group]
        node = self.machine.nodes[member]
        iface = node.iface
        applied = iface._applied
        image = {
            var: applied.get(var, decl.initial)
            for var, decl in group.variables.items()
        }
        lock_state = {name: node.store.read(name) for name in group.locks}
        lock_seq = {
            name: iface._applied_lock_seq.get(name, -1) for name in group.locks
        }
        reply = FailoverReply(
            group=query.group,
            member=member,
            epoch=query.epoch,
            next_seq=iface._next_seq[query.group],
            image=image,
            lock_state=lock_state,
            lock_seq=lock_seq,
            retransmit=query.retransmit,
        )
        size = (
            self.machine.params.packet_bytes
            + sum(decl.size_bytes for decl in group.variables.values())
            + 16 * len(group.locks)
        )
        self.machine.network.send(
            Message(
                src=member,
                dst=query.successor,
                kind="failover.reply",
                payload=reply,
                size_bytes=size,
            )
        )

    def _on_reply(self, node_id: int, reply: FailoverReply) -> None:
        election = self._pending.get(reply.group)
        if (
            election is None
            or reply.epoch != election.epoch
            or node_id != election.successor
        ):
            return  # Stale reply from a superseded election.
        election.replies[reply.member] = reply
        self._maybe_takeover(election)

    def _maybe_takeover(self, election: _Election) -> bool:
        group = self.machine.groups[election.group]
        waiting = [
            m
            for m in group.members
            if m not in election.replies and not self.injector.is_crashed(m)
        ]
        if waiting or not election.replies:
            return False
        self._takeover(election)
        return True

    # ------------------------------------------------------------------
    # Takeover: re-root, rebuild the image and lock table, hand off
    # ------------------------------------------------------------------

    def _takeover(self, election: _Election) -> None:
        from repro.consistency.gwc import GroupRootEngine

        machine = self.machine
        group = machine.groups[election.group]
        # The member with the longest applied prefix carries the
        # authoritative image; its cursor becomes the epoch start.
        best = min(
            election.replies.values(), key=lambda r: (-r.next_seq, r.member)
        )
        next_seq = best.next_seq
        successor = election.successor

        group.retarget_root(successor, start_seq=next_seq)
        engine = GroupRootEngine(machine.sim, group, machine.params.packet_bytes)
        engine.enable_reliability(heartbeat_interval=machine.nack_timeout)
        for decl in group.locks.values():
            engine.add_lock(decl)
        old_engine = machine.nodes[election.old_root].iface.root_engines.get(
            election.group
        )
        if old_engine is not None and old_engine._lock_recovery:
            engine.configure_lock_recovery(
                old_engine._lease_duration,
                old_engine._lease_is_crashed,
                old_engine._lease_max_extensions,
            )
        for manager in engine.lock_managers.values():
            manager.on_reclaim = self.injector._note_reclaim

        iface = machine.nodes[successor].iface
        iface.root_engines[election.group] = engine
        iface._adopt_epoch(election.group, election.epoch, next_seq)

        # The image: every variable as the longest prefix applied it,
        # then each lock rebuilt from first-person member evidence.
        image = {
            var: best.image.get(var, decl.initial)
            for var, decl in sorted(group.variables.items())
        }
        for name in sorted(group.locks):
            holder, pending = self._reconstruct_lock(election, name)
            manager = engine.lock_managers[name]
            if holder is None and pending:
                holder, pending = pending[0], pending[1:]
            manager.queue.extend(pending)
            if holder is not None:
                manager._grant_to(holder)
            image[name] = FREE_VALUE if holder is None else grant_value(holder)
        engine.hand_off(
            election.epoch, next_seq, image, election.old_root, rebuilt=True
        )

        del self._pending[election.group]
        self.takeovers += 1
        machine.network.stats.failovers += 1
        if self.sim.trace_enabled:
            self.sim.tracer.record(
                self.sim.now,
                "failover.takeover",
                group=election.group,
                old_root=election.old_root,
                root=successor,
                epoch=election.epoch,
                next_seq=next_seq,
                quorum=sorted(election.replies),
            )

    def _reconstruct_lock(
        self, election: _Election, name: str
    ) -> tuple[int | None, list[int]]:
        """(holder, pending queue) from the quorum's lock evidence.

        Only *first-person* evidence counts: a member claims the lock
        when its own copy reads ``grant(self)`` and joins the queue when
        its copy reads ``request(-self)``.  Third-party copies (everyone
        sees ``grant(holder)``) are ignored — they would re-grant to a
        crashed ex-holder.  Requesters whose ``-id`` evidence was
        overwritten by a later sequenced grant re-issue through the
        retry policy instead.
        """
        claims: list[tuple[int, int]] = []
        pending: list[int] = []
        for reply in election.replies.values():
            value = reply.lock_state.get(name, FREE_VALUE)
            if holder_of(value) == reply.member:
                claims.append((reply.lock_seq.get(name, -1), reply.member))
            elif requester_of(value) == reply.member:
                pending.append(reply.member)
        holder: int | None = None
        if claims:
            claims.sort(key=lambda claim: (-claim[0], claim[1]))
            holder = claims[0][1]
        pending.sort()
        return holder, [m for m in pending if m != holder]
