"""Mutual exclusion across multiple sharing groups (end of Section 2).

"Mutual exclusion across multiple groups requires permissions from all
the involved roots.  Routing corresponding locking messages and data
changes on the same paths through the roots guarantees a consistent view
of variable updates."

:class:`MultiGroupMutex` acquires one GWC lock per involved group, in a
single canonical order (sorted lock names) so that two processors
needing overlapping group sets can never deadlock.  Releases go in
reverse order.  Each per-group lock is an ordinary Section 2 queue lock
managed by that group's root, so data changes in each group remain
ordered against that group's lock traffic — the "same paths through the
roots" property.

The paper also notes that combining overlapping groups into one global
group "can prevent scaling in large networks by overloading the global
root"; multi-group locking is the scalable alternative for the rare
cross-group sections.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.node import NodeHandle
from repro.errors import LockError
from repro.locks.gwc_lock import GwcLockClient


class MultiGroupMutex:
    """Exclusive access spanning several groups' locks."""

    def __init__(self, machine: "DSMMachine", locks: tuple[str, ...]) -> None:  # noqa: F821
        if not locks:
            raise LockError("multi-group mutex needs at least one lock")
        if len(set(locks)) != len(locks):
            raise LockError(f"duplicate locks in {locks}")
        self.machine = machine
        #: Canonical global acquisition order prevents deadlock.
        self.locks = tuple(sorted(locks))
        self._clients = {
            name: GwcLockClient(machine.group_of_lock(name).locks[name])
            for name in self.locks
        }
        # Verify the locks really span distinct groups (the pattern's
        # purpose); same-group pairs would work but are pointless.
        self.groups = tuple(
            machine.group_of_lock(name).name for name in self.locks
        )

    def acquire(self, node: NodeHandle) -> Generator[Any, Any, None]:
        """Acquire every involved root's permission, in canonical order."""
        for name in self.locks:
            yield from self._clients[name].acquire(node)
        node.metrics.count("multigroup.acquired")

    def release(self, node: NodeHandle) -> Generator[Any, Any, None]:
        """Release in reverse order (last root granted, first released)."""
        for name in reversed(self.locks):
            yield from self._clients[name].release(node)
        node.metrics.count("multigroup.released")
