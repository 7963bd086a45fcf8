"""Per-node local memory.

Every node holds a private copy of every shared variable of every group
it belongs to — that is the essence of eagersharing: reads are always
local.  The store also fires a per-variable :class:`~repro.sim.waiters.Signal`
on each committed write so simulated processes can sleep until a value
they care about changes (instead of polling).

Layout note: each variable lives in one ``[value, write_count, signal]``
slot so the hot :meth:`write` path pays a single dict lookup instead of
three (value map, write-count map, signal map).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import UnknownVariableError
from repro.sim.waiters import PredicateWait, Signal

#: Slot indices (one list per variable).
_VALUE = 0
_COUNT = 1
_SIGNAL = 2


class LocalStore:
    """One node's local memory image of the shared variable space."""

    def __init__(self, node: int) -> None:
        self.node = node
        #: name -> ``[value, write_count, signal-or-None]``.
        self._slots: dict[str, list[Any]] = {}

    @property
    def write_counts(self) -> dict[str, int]:
        """Monotone count of committed writes per variable (diagnostics)."""
        return {name: slot[_COUNT] for name, slot in self._slots.items()}

    def declare(self, name: str, initial: Any) -> None:
        """Install a variable with its initial value (idempotent re-init)."""
        slot = self._slots.get(name)
        if slot is None:
            self._slots[name] = [initial, 0, None]
        else:
            slot[_VALUE] = initial

    def knows(self, name: str) -> bool:
        return name in self._slots

    def read(self, name: str) -> Any:
        try:
            return self._slots[name][_VALUE]
        except KeyError:
            raise UnknownVariableError(
                f"node {self.node}: variable {name!r} not declared"
            ) from None

    def write(self, name: str, value: Any) -> None:
        """Commit a value and wake any waiters on this variable."""
        slot = self._slots.get(name)
        if slot is None:
            raise UnknownVariableError(
                f"node {self.node}: variable {name!r} not declared"
            )
        slot[0] = value
        slot[1] += 1
        signal = slot[2]
        if signal is not None and signal._waiters:
            signal.fire(value)

    def signal_for(self, name: str) -> Signal:
        """The change signal for a variable (created on first use)."""
        slot = self._slots.get(name)
        if slot is None:
            raise UnknownVariableError(
                f"node {self.node}: variable {name!r} not declared"
            )
        signal = slot[_SIGNAL]
        if signal is None:
            signal = Signal(name=f"n{self.node}.{name}")
            slot[_SIGNAL] = signal
        return signal

    def wait_until(
        self, name: str, predicate: Callable[[Any], bool]
    ) -> Generator[Any, Any, Any]:
        """Process helper: wait until ``predicate(value)`` holds.

        Checks the current value first, so an already-true predicate does
        not wait at all.  Otherwise one :class:`PredicateWait` waits on
        the variable's signal for the whole call: each write is tested
        at fire time, and only a write that makes the predicate true
        resumes the process — a false one costs it nothing, yet leaves
        every other heap key where a resume-and-re-test would have (see
        :class:`PredicateWait`).  Re-reads the store after every wake-up
        (rather than trusting the fired payload) because several
        sequenced applies can land between the fire and the process
        resuming; the store always holds the latest committed value.
        Returns the satisfying value.
        """
        value = self.read(name)
        signal = self.signal_for(name)
        if predicate(value):
            return value
        wait = PredicateWait(signal, predicate)
        while True:
            yield wait
            value = self.read(name)
            if predicate(value):
                return value

    def snapshot(self, names: tuple[str, ...] | list[str]) -> dict[str, Any]:
        """Copy of the named variables (for rollback saving)."""
        return {name: self.read(name) for name in names}

    def restore(self, saved: dict[str, Any]) -> None:
        """Write back a snapshot taken with :meth:`snapshot`."""
        for name, value in saved.items():
            self.write(name, value)
