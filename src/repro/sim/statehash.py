"""Canonical state hashing for simulated machines.

Two runs are "the same" when their final state is bit-identical, so
"state" needs one canonical definition: every node's store slots (value
and write count), the root-side lock tables, the per-node metrics time
buckets and counters, the group sequencer positions, and the final
simulated clock.  The hash is a SHA-256 over a type-tagged, sorted,
length-prefixed encoding, so two hashes are equal iff the states are
structurally identical — dict insertion order, float formatting, and
container identity never leak in.

The sweep-determinism tests and the layered benchmark compare runs by
this hash, which catches divergence anywhere in the machine, not just in
the few fields a test thought to look at.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import DSMMachine


def _encode(obj: Any, parts: list[bytes]) -> None:
    """Append a canonical, type-tagged encoding of ``obj`` to ``parts``.

    Supported: None, bool, int, float, str, bytes, and (nested) tuples,
    lists, sets, and dicts of the same.  Anything else raises — state
    that cannot be canonicalized cannot be compared across runs, and
    silently hashing ``repr`` (which may embed ``id()``) would turn the
    comparison into a coin flip.
    """
    if obj is None:
        parts.append(b"N")
    elif obj is True:
        parts.append(b"T")
    elif obj is False:
        parts.append(b"F")
    elif type(obj) is int:
        parts.append(b"i%d;" % obj)
    elif type(obj) is float:
        # repr() is the shortest round-tripping form: equal bits give
        # equal text, different bits give different text.
        parts.append(b"f" + repr(obj).encode("ascii") + b";")
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        parts.append(b"s%d:" % len(raw))
        parts.append(raw)
    elif type(obj) is bytes:
        parts.append(b"b%d:" % len(obj))
        parts.append(obj)
    elif type(obj) is tuple or type(obj) is list:
        parts.append(b"l%d:" % len(obj))
        for item in obj:
            _encode(item, parts)
    elif type(obj) is dict:
        # Sort by the encoded key so insertion order never matters.
        encoded: list[tuple[bytes, Any]] = []
        for key, value in obj.items():
            key_parts: list[bytes] = []
            _encode(key, key_parts)
            encoded.append((b"".join(key_parts), value))
        encoded.sort(key=lambda kv: kv[0])
        parts.append(b"d%d:" % len(encoded))
        for key_bytes, value in encoded:
            parts.append(key_bytes)
            _encode(value, parts)
    elif type(obj) is set or type(obj) is frozenset:
        members: list[bytes] = []
        for item in obj:
            item_parts: list[bytes] = []
            _encode(item, item_parts)
            members.append(b"".join(item_parts))
        members.sort()
        parts.append(b"S%d:" % len(members))
        parts.extend(members)
    else:
        raise SimulationError(
            f"cannot canonicalize {type(obj).__name__!r} for state hashing: {obj!r}"
        )


def canonical_bytes(obj: Any) -> bytes:
    """The canonical encoding used by :func:`hash_payload`."""
    parts: list[bytes] = []
    _encode(obj, parts)
    return b"".join(parts)


def hash_payload(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def _node_state(machine: "DSMMachine", node_id: int) -> dict[str, Any]:
    node = machine.nodes[node_id]
    store = {
        name: (slot[0], slot[1]) for name, slot in node.store._slots.items()
    }
    metrics = node.metrics
    return {
        "store": store,
        "useful": metrics.useful,
        "overhead": metrics.overhead,
        "wasted": metrics.wasted,
        "counters": dict(metrics.counters),
    }


def _group_state(machine: "DSMMachine", name: str) -> dict[str, Any]:
    group = machine.groups[name]
    engine = machine.root_engine(name)
    locks: dict[str, Any] = {}
    for lock_name, manager in engine.lock_managers.items():
        locks[lock_name] = (
            manager.holder,
            tuple(manager.queue),
            manager.grants,
            manager.releases,
            manager.max_queue,
            manager.regrants,
            manager.cancelled_requests,
            manager.stale_releases,
            manager.lease_reclaims,
            manager.lease_extensions,
        )
    return {
        "root": group.root,
        "members": tuple(group.members),
        "sequenced": engine.sequenced,
        "epoch": engine.epoch,
        "epoch_start_seq": engine.epoch_start_seq,
        "locks": locks,
    }


def state_payload(machine: "DSMMachine") -> dict[str, Any]:
    """The canonical final state of a machine after a run."""
    return {
        "n_nodes": machine.n_nodes,
        "clock": machine.sim.now,
        "nodes": {
            node_id: _node_state(machine, node_id)
            for node_id in range(machine.n_nodes)
        },
        "groups": {name: _group_state(machine, name) for name in machine.groups},
    }


def machine_state_hash(machine: "DSMMachine") -> str:
    """SHA-256 hex digest of :func:`state_payload`."""
    return hash_payload(state_payload(machine))


def shared_state_payload(machine: "DSMMachine") -> dict[str, Any]:
    """The *semantic* shared-memory outcome of a run.

    :func:`state_payload` is the right bar for two runs of the same
    machine (every counter and sequencer position must match
    bit-for-bit).  Root sharding changes the machine itself — sequence
    numbers split across per-partition streams, message counts and
    clocks legitimately differ — so its parity bar is semantic instead:
    after quiescence, every member of every group must hold the same
    final value for every shared variable, and every lock must have
    returned to FREE.

    The payload is keyed by *family* (partition siblings collapse), so
    a serial single-root run and a K-root sharded run of the same
    workload produce comparable payloads.  Raises if members disagree
    with their group root's authoritative value — divergence must fail
    the parity check loudly, not hash two different states.
    """
    from repro.memory.varspace import FREE_VALUE

    families: dict[str, dict[str, Any]] = {}
    for name, group in machine.groups.items():
        engine = machine.root_engine(name)
        values = families.setdefault(group.family, {})
        for var in (*group.variables, *group.locks):
            authoritative = engine.authoritative_read(var)
            for member in group.members:
                local = machine.nodes[member].store.read(var)
                if var in group.locks:
                    # A holder's own store legitimately shows its grant
                    # while everyone else converged on the sequenced
                    # value; the lock table below captures occupancy.
                    continue
                if local != authoritative:
                    raise SimulationError(
                        f"shared-state divergence: node {member} has "
                        f"{var!r}={local!r}, root of {name!r} says "
                        f"{authoritative!r}"
                    )
            values[var] = authoritative
        for lock_name, manager in engine.lock_managers.items():
            if manager.holder is None and (
                engine.authoritative_read(lock_name) != FREE_VALUE
            ):
                raise SimulationError(
                    f"lock {lock_name!r} has no holder but authoritative "
                    f"value {engine.authoritative_read(lock_name)!r} != FREE"
                )
            values[lock_name] = ("lock", manager.holder, tuple(manager.queue))
    return {"families": families}


def shared_state_hash(machine: "DSMMachine") -> str:
    """SHA-256 hex digest of :func:`shared_state_payload`."""
    return hash_payload(shared_state_payload(machine))
