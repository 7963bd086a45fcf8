"""Entry consistency comparator (the paper's Midway-style baseline).

Behaviours the paper's comparison depends on (Section 3, Figure 1(b)):

* Guarded data is **not** eagerly shared: its current values travel with
  each lock grant ("extra time to send the changed data with the lock").
* Locks can be acquired in exclusive or non-exclusive mode; moving to
  exclusive mode first **invalidates** every node holding the data
  non-exclusively (a round trip per holder, overlapped).
* **Releases are local**: the releasing node keeps ownership and hands
  the lock directly to the next queued requester.
* This is the paper's "fast version of entry consistency, which is
  assumed always to know the lock owner": requesters consult an oracle
  for the current owner when sending, so no time is lost guessing.
  (Requests that race an in-flight ownership transfer are forwarded.)
* Reads of non-guarded remote data use **demand fetch**: a round trip to
  the variable's home ("processors must fetch and test a variable
  written by the producer", Section 3.1).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Generator

from repro.consistency.base import DsmSystem, register_system
from repro.core.node import NodeHandle
from repro.errors import ExperimentError, LockStateError
from repro.net.message import Message
from repro.sim.waiters import Future

#: Lock acquisition modes.
EXCLUSIVE = "exclusive"
NON_EXCLUSIVE = "non_exclusive"


@dataclass(slots=True)
class _EcLockState:
    """Global (oracle-visible) state of one entry-consistency lock."""

    owner: int
    held: bool = False
    granting: bool = False
    queue: deque[tuple[int, str]] = field(default_factory=deque)
    #: Nodes holding valid copies of the guarded data.
    copyset: set[int] = field(default_factory=set)
    pending_acks: int = 0
    pending_grant: tuple[int, str] | None = None


@dataclass(frozen=True, slots=True)
class _Req:
    lock: str
    requester: int
    mode: str
    #: Wrong-guess forwarding hops so far (guess mode only).
    forwards: int = 0


class EntrySystem(DsmSystem):
    """Entry consistency with owner-queued locks and demand fetch."""

    name = "entry"

    #: Default per-fetch software service time at the home node.  Entry
    #: consistency (Midway) is a software DSM: serving a demand fetch
    #: runs a request handler on the home processor (a few hundred
    #: instructions at 33 MFLOPS), where Sesame's eagersharing is done
    #: by dedicated interface hardware at zero processor cost.  This
    #: asymmetry is the paper's core premise (Section 1.1).
    DEFAULT_FETCH_SERVICE_TIME = 10e-6

    #: Forwarding chains give up and consult the true owner after this
    #: many wrong guesses (guarantees termination with stale caches).
    MAX_FORWARDS = 8

    def __init__(
        self,
        machine: "DSMMachine",  # noqa: F821
        fetch_service_time: float | None = None,
        owner_oracle: bool = True,
    ) -> None:
        super().__init__(machine)
        #: The paper's "fast version ... assumed always to know the lock
        #: owner".  With ``owner_oracle=False`` requesters instead use
        #: their last-observed owner and wrong guesses are forwarded —
        #: §1.3's "if the guess is wrong ... the request is forwarded to
        #: a new guess supplied by p", the cost the paper says makes
        #: entry consistency "not perform as well" under light
        #: contention.
        self.owner_oracle = owner_oracle
        #: Per-(lock, node) last-observed owner (guess mode only).
        self._owner_guess: dict[tuple[str, int], int] = {}
        self._locks: dict[str, _EcLockState] = {}
        #: Home (latest exclusive writer) of each non-guarded variable.
        self._var_home: dict[str, int] = {}
        #: Declaring group of each variable nobody has written yet: its
        #: root is the home until the first write.
        self._decl_group: dict[str, "SharingGroup"] = {}  # noqa: F821
        #: Futures for requesters blocked on a grant: (lock, node).
        self._grant_waits: dict[tuple[str, int], Future] = {}
        #: Futures for in-flight demand fetches, keyed by fetch id.
        self._fetch_waits: dict[int, Future] = {}
        self._fetch_ids = 0
        self._poll_interval: float | None = None
        #: Per-fetch fixed service time at the home node, seconds.
        self.fetch_service_time: float = (
            fetch_service_time
            if fetch_service_time is not None
            else self.DEFAULT_FETCH_SERVICE_TIME
        )
        if self.fetch_service_time < 0:
            raise ExperimentError(
                f"fetch_service_time must be >= 0: {self.fetch_service_time}"
            )
        self._home_free_at: dict[int, float] = {}
        #: ``(home, var) -> (reply wire bytes, memory time)``: constants
        #: of the frozen declaration, derived on the first fetch served.
        self._fetch_cost: dict[tuple[int, str], tuple[int, float]] = {}
        #: A fetch reply is fire-and-forget and never scheduled in the
        #: past (``free_at >= now``), so it takes the handle-less heap
        #: entry, bound once as Process binds ``push_fn``.
        self._sim = machine.sim
        self._push_call = machine.sim._queue.push_call
        self._net_send = machine.network.send
        self._packet_bytes = machine.params.packet_bytes
        #: ``kind -> handler(node_id, msg)``: the one dispatch table.
        self._handlers: dict[str, Callable[[int, Message], None]] = {
            "ec.acquire_req": self._on_acquire_req,
            "ec.grant": self._on_grant,
            "ec.invalidate": self._on_invalidate,
            "ec.inval_ack": self._on_inval_ack,
            "ec.fetch_req": self._serve_fetch,
            "ec.fetch_reply": self._on_fetch_reply,
        }
        machine.register_kind_handler(
            "ec", self._on_message, per_node=self._delivery_for
        )
        #: Diagnostics.
        self.invalidations = 0
        self.data_grants = 0
        self.fetches = 0

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def _lock_state(self, lock: str) -> _EcLockState:
        state = self._locks.get(lock)
        if state is None:
            group = self.machine.group_of_lock(lock)
            state = _EcLockState(owner=group.root, copyset={group.root})
            self._locks[lock] = state
        return state

    def _home(self, var: str) -> int:
        home = self._var_home.get(var)
        if home is not None:
            return home
        group = self._decl_group.get(var)
        if group is None:
            for group in self.machine.groups.values():
                if var in group.variables:
                    break
            else:
                raise LockStateError(f"no group declares variable {var!r}")
            self._decl_group[var] = group
        return group.root

    def seed_copyset(self, lock: str, nodes: tuple[int, ...]) -> None:
        """Pre-populate non-exclusive holders (Figure 1(b)'s setup)."""
        self._lock_state(lock).copyset.update(nodes)

    def _send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int | None = None
    ) -> None:
        self._net_send(
            Message(
                src,
                dst,
                kind,
                payload,
                self._packet_bytes if size_bytes is None else size_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------

    def read(self, node: NodeHandle, var: str) -> Generator[Any, Any, Any]:
        """Guarded or home-local reads are local; otherwise demand fetch."""
        group = node.iface.group_of(var)
        decl = group.var_decl(var)
        if decl.is_mutex_data or (home := self._home(var)) == node.id:
            return node.store.read(var)
        value = yield self._start_fetch(node, var, home)
        node.store.write(var, value)
        return value

    def _start_fetch(self, node: NodeHandle, var: str, home: int) -> Future:
        """Send one demand fetch to ``home``; the future is its reply."""
        self.fetches += 1
        node.metrics.count("ec.fetches")
        self._fetch_ids = fetch_id = self._fetch_ids + 1
        # Named for the variable: what a deadlock report should show.
        future = self._fetch_waits[fetch_id] = Future(f"ec.fetch.{var}")
        self._net_send(
            Message(
                node.id,
                home,
                "ec.fetch_req",
                (fetch_id, var, node.id),
                self._packet_bytes,
            )
        )
        return future

    def write(
        self, node: NodeHandle, var: str, value: Any
    ) -> Generator[Any, Any, None]:
        """Non-guarded write: local commit; this node becomes the home."""
        node.store.write(var, value)
        self._var_home[var] = node.id
        return
        yield  # pragma: no cover - marks this function as a generator

    def wait_value(
        self,
        node: NodeHandle,
        var: str,
        predicate: Callable[[Any], bool],
    ) -> Generator[Any, Any, Any]:
        """Poll — entry consistency pushes nothing.

        Non-guarded remote variables are re-fetched until the predicate
        holds (the paper's "fetch and test a variable written by the
        producer").  Guarded variables are polled by repeated
        non-exclusive lock acquisitions with a round-trip back-off —
        "the waits for updated read copies of values protected by a
        lock become significant for larger networks" (Section 3.1).
        """
        group = node.iface.group_of(var)
        decl = group.var_decl(var)
        if decl.is_mutex_data:
            return (yield from self._poll_guarded(node, var, decl, predicate))
        while True:
            # The home migrates to whichever node wrote last, so it must
            # be re-evaluated every round — a waiter that trusted a stale
            # home would sleep on a copy nobody will ever update.
            home = self._home(var)
            if home == node.id:
                value = node.store.read(var)
            else:
                value = yield self._start_fetch(node, var, home)
                node.store.write(var, value)
            if predicate(value):
                return value
            if home == node.id:
                yield self.poll_interval()

    def poll_interval(self) -> float:
        """Back-off between guarded-data polls: about one round trip."""
        if self._poll_interval is None:
            params = self.machine.params
            diameter = self.machine.topology.diameter()
            self._poll_interval = max(
                2.0 * params.wire_time(params.packet_bytes, diameter), 1e-6
            )
        return self._poll_interval

    def _poll_guarded(
        self,
        node: NodeHandle,
        var: str,
        decl: Any,
        predicate: Callable[[Any], bool],
    ) -> Generator[Any, Any, Any]:
        while True:
            yield from self.acquire(node, decl.mutex_lock, mode=NON_EXCLUSIVE)
            value = node.store.read(var)
            yield from self.release(node, decl.mutex_lock)
            if predicate(value):
                return value
            yield self.poll_interval()

    def section_write(self, node: NodeHandle, var: str, value: Any) -> None:
        """Guarded write: local only; ships with the next lock grant."""
        node.store.write(var, value)

    # ------------------------------------------------------------------
    # Lock protocol
    # ------------------------------------------------------------------

    def acquire(
        self, node: NodeHandle, lock: str, mode: str = EXCLUSIVE
    ) -> Generator[Any, Any, None]:
        state = self._lock_state(lock)
        node.metrics.count("lock.requests")
        if (
            mode == NON_EXCLUSIVE
            and node.id in state.copyset
            and not state.held
            and not state.granting
        ):
            node.metrics.count("lock.acquired")
            return
        if (
            mode == EXCLUSIVE
            and state.owner == node.id
            and not state.held
            and not state.granting
            and state.copyset <= {node.id}
        ):
            # Re-acquisition by the owner with no remote copies: free.
            state.held = True
            state.copyset = {node.id}
            node.metrics.count("lock.acquired")
            return
        future = Future(name=f"ec.grant.{lock}.{node.id}")
        self._grant_waits[(lock, node.id)] = future
        target = (
            state.owner
            if self.owner_oracle
            else self._owner_guess.get((lock, node.id), state.owner if node.id == state.owner else self.machine.group_of_lock(lock).root)
        )
        self._send(
            node.id, target, "ec.acquire_req", payload=_Req(lock, node.id, mode)
        )
        yield future
        node.metrics.count("lock.acquired")

    def release(self, node: NodeHandle, lock: str) -> Generator[Any, Any, None]:
        """Local release; hand off directly to the next queued requester."""
        state = self._lock_state(lock)
        if state.held and state.owner == node.id:
            state.held = False
            node.metrics.count("lock.released")
            self._pump_queue(lock, state)
        else:
            # Non-exclusive release: the copy stays valid in the copyset.
            node.metrics.count("lock.released")
        return
        yield  # pragma: no cover - marks this function as a generator

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _delivery_for(self, node_id: int, kind: str) -> Callable[[Message], None]:
        """The final delivery callable for one ``(node, kind)`` pair.

        An unknown ``ec.*`` kind resolves to :meth:`_on_message`, which
        raises when the message is delivered, not when it is sent.
        """
        return partial(self._handlers.get(kind, self._on_message), node_id)

    def _on_message(self, node_id: int, msg: Message) -> None:
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise LockStateError(f"unknown entry-consistency message {msg.kind!r}")
        handler(node_id, msg)

    def _on_invalidate(self, node_id: int, msg: Message) -> None:
        lock, owner = msg.payload
        state = self._lock_state(lock)
        state.copyset.discard(node_id)
        self._send(node_id, owner, "ec.inval_ack", payload=lock)

    def _serve_fetch(self, node_id: int, msg: Message) -> None:
        """Serve one demand fetch at the home node.

        Unlike eagersharing (done by dedicated interface hardware without
        slowing the processor), demand fetches occupy the home node's
        memory system one at a time.  Serializing the replies is what
        makes a heavily fetched home — the Figure 2 producer — a
        hot-spot, the paper's reason demand-fetch protocols "do not
        execute efficiently on more than a few dozen processors".
        """
        fetch_id, var, requester = msg.payload
        node = self.machine.nodes[node_id]
        value = node.store.read(var)
        cost = self._fetch_cost.get((node_id, var))
        if cost is None:
            size = node.iface.group_of(var).wire_bytes(var, self._packet_bytes)
            cost = (size, self.machine.params.memory_time(size))
            self._fetch_cost[(node_id, var)] = cost
        size, memory_time = cost
        service = memory_time + self.fetch_service_time
        now = self._sim._now
        free_at = max(now, self._home_free_at.get(node_id, 0.0)) + service
        self._home_free_at[node_id] = free_at
        self._push_call(
            free_at,
            self._send_fetch_reply,
            (node_id, requester, fetch_id, value, size),
        )

    def _send_fetch_reply(self, record: tuple[int, int, int, Any, int]) -> None:
        """The served value leaves the home once its memory is free."""
        home, requester, fetch_id, value, size = record
        self._net_send(
            Message(home, requester, "ec.fetch_reply", (fetch_id, value), size)
        )

    def _on_fetch_reply(self, node_id: int, msg: Message) -> None:
        fetch_id, value = msg.payload
        waiter = self._fetch_waits.pop(fetch_id, None)
        if waiter is None:
            raise LockStateError(
                f"fetch reply {fetch_id} at {node_id} had no waiter"
            )
        waiter.resolve(value)

    def _on_acquire_req(self, node_id: int, msg: Message) -> None:
        req: _Req = msg.payload
        state = self._lock_state(req.lock)
        if state.owner != node_id:
            # Wrong guess (or ownership transferred in flight): forward.
            self.machine.nodes[node_id].metrics.count("ec.forwards")
            forwarded = dataclasses.replace(req, forwards=req.forwards + 1)
            if self.owner_oracle or req.forwards + 1 >= self.MAX_FORWARDS:
                target = state.owner  # authoritative
            else:
                target = self._owner_guess.get((req.lock, node_id), state.owner)
                if target == node_id:
                    target = state.owner
            # Li/Hudak-style path compression: future requests through
            # this node chase the requester, who will soon hold the lock.
            self._owner_guess[(req.lock, node_id)] = req.requester
            self._send(node_id, target, "ec.acquire_req", payload=forwarded)
            return
        if state.held or state.granting:
            state.queue.append((req.requester, req.mode))
            return
        self._start_grant(req.lock, state, req.requester, req.mode)

    def _start_grant(
        self, lock: str, state: _EcLockState, requester: int, mode: str
    ) -> None:
        """Begin granting: invalidate remote copies first if exclusive."""
        state.granting = True
        state.pending_grant = (requester, mode)
        if mode == EXCLUSIVE:
            victims = state.copyset - {state.owner, requester}
            if victims:
                state.pending_acks = len(victims)
                self.invalidations += len(victims)
                for victim in victims:
                    self._send(
                        state.owner,
                        victim,
                        "ec.invalidate",
                        payload=(lock, state.owner),
                    )
                return
        self._finish_grant(lock, state)

    def _on_inval_ack(self, node_id: int, msg: Message) -> None:
        lock: str = msg.payload
        state = self._lock_state(lock)
        if state.owner != node_id or state.pending_grant is None:
            raise LockStateError(f"stray invalidation ack for {lock!r} at {node_id}")
        state.pending_acks -= 1
        if state.pending_acks == 0:
            self._finish_grant(lock, state)

    def _finish_grant(self, lock: str, state: _EcLockState) -> None:
        """Send the grant, shipping the guarded data with it."""
        assert state.pending_grant is not None
        requester, mode = state.pending_grant
        state.pending_grant = None
        decl = self.machine.group_of_lock(lock).locks[lock]
        owner_store = self.machine.nodes[state.owner].store
        data = {var: owner_store.read(var) for var in decl.protects}
        self.data_grants += 1
        size = self.machine.params.packet_bytes + decl.data_bytes
        # The granting (old) owner learns where the lock went.
        self._owner_guess[(lock, state.owner)] = requester
        self._send(
            state.owner,
            requester,
            "ec.grant",
            payload=(lock, mode, data),
            size_bytes=size,
        )
        if mode == EXCLUSIVE:
            state.owner = requester
            state.held = True
            state.copyset = {requester}
        else:
            state.copyset.add(requester)
            state.granting = False
            # Non-exclusive grants do not block the queue.
            self._pump_queue(lock, state)

    def _on_grant(self, node_id: int, msg: Message) -> None:
        lock, mode, data = msg.payload
        state = self._lock_state(lock)
        # The grantee now knows the owner exactly: itself.
        self._owner_guess[(lock, node_id)] = node_id
        store = self.machine.nodes[node_id].store
        for var, value in data.items():
            store.write(var, value)
        if mode == EXCLUSIVE:
            state.granting = False
        waiter = self._grant_waits.pop((lock, node_id), None)
        if waiter is None:
            raise LockStateError(f"grant for {lock!r} at {node_id} had no waiter")
        waiter.resolve(None)

    def _pump_queue(self, lock: str, state: _EcLockState) -> None:
        if state.queue and not state.held and not state.granting:
            requester, mode = state.queue.popleft()
            self._start_grant(lock, state, requester, mode)


register_system("entry", EntrySystem)
