"""Waitable primitives for simulated processes.

Processes wait by *yielding* one of these objects:

* :class:`Future` — a one-shot value; every waiter is resumed with the
  value once :meth:`Future.resolve` is called.  Waiting on an already
  resolved future resumes immediately.
* :class:`Signal` — a broadcast condition; each :meth:`Signal.fire` wakes
  the waiters registered at that moment with the fired payload.  Waiters
  that register later wait for the *next* fire.
* :class:`PredicateWait` — a wait on a :class:`Signal` that wakes its
  process only when a fire's payload satisfies a predicate; the other
  fires cost the process nothing (see the class for the order rule).

:class:`Future` and :class:`Signal` deliver the payload as the value of
the ``yield`` expression.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError


class Future:
    """A one-shot value that processes can wait for."""

    __slots__ = ("_callbacks", "_resolved", "_value", "name")

    def __init__(self, name: str = "future") -> None:
        self.name = name
        self._resolved = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise SimulationError(f"future {self.name!r} read before resolve")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Set the value and wake every waiter.  May only happen once."""
        if self._resolved:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._resolved = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` on resolve (immediately if resolved)."""
        if self._resolved:
            callback(self._value)
        else:
            self._callbacks.append(callback)


class Signal:
    """A broadcast event that can fire many times.

    Each :meth:`fire` wakes exactly the waiters registered before the
    fire; the payload becomes each waiter's ``yield`` value.
    """

    __slots__ = ("_waiters", "fire_count", "name")

    def __init__(self, name: str = "signal") -> None:
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        self.fire_count = 0

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback`` to be invoked on the next fire only.

        It goes behind every waiter registered so far, except filtered
        :class:`PredicateWait` waiters whose re-registration slot lies
        later in the heap schedule (see :class:`PredicateWait`).
        """
        waiters = self._waiters
        if waiters:
            last = waiters[-1]
            if last.__class__ is PredicateWait:
                sim = last.process.sim
                self._insert(callback, sim._now, sim._seq)
                return
        waiters.append(callback)

    def _insert(self, entry: Any, time: float, seq: int) -> None:
        """Register ``entry`` as if at heap key ``(time, seq)``.

        The waiter list is in registration-key order; only filtered
        waiters still ahead of that key can follow it, and they form
        the list's tail.
        """
        waiters = self._waiters
        i = len(waiters)
        while i:
            last = waiters[i - 1]
            if (
                last.__class__ is not PredicateWait
                or last.slot_seq <= seq
                or last.slot_time != time
            ):
                break
            i -= 1
        waiters.insert(i, entry)

    def remove_callback(self, callback: Callable[[Any], None]) -> bool:
        """Deregister a callback; returns True if it was registered."""
        try:
            self._waiters.remove(callback)
        except ValueError:
            return False
        return True

    def fire(self, payload: Any = None) -> int:
        """Wake all currently registered waiters; return how many."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(payload)
        return len(waiters)


class PredicateWait:
    """A process's wait on a :class:`Signal` until ``predicate(payload)``.

    Yielded by a process (see :meth:`LocalStore.wait_until`), it
    registers on ``signal`` and is tested at each fire, so a fire whose
    payload leaves the predicate false costs no heap entry and no
    process resume.  The payload must be the watched value itself.

    The filter is *order-exact*: every heap entry still pushed keeps the
    ``(time, seq)`` it had when each fire resumed the process and the
    process re-tested and re-registered.  A false fire therefore stands
    in for that resume: it reserves the queue seq the resume entry would
    have taken, ``(now, s)``, counts the generator step the resume would
    have taken, and re-registers the waiter as of that key — anyone who
    registers on the signal between the fire and ``(now, s)`` goes
    ahead of it.  While ``(now, s)`` is still ahead of the running event
    (the *pending slot*), the unfiltered process would not have been
    registered at all, only holding a resume at ``(now, s)`` that re-reads
    the value: a true fire then pushes that very resume (no new seq), a
    false one does nothing.  A killed process gets the plain resume,
    which is a no-op once it pops.
    """

    __slots__ = ("signal", "predicate", "process", "slot_time", "slot_seq")

    def __init__(self, signal: Signal, predicate: Callable[[Any], bool]) -> None:
        self.signal = signal
        self.predicate = predicate
        #: Bound by :meth:`Process._dispatch` when the wait is yielded.
        self.process: Any = None
        #: The reserved key of the latest filtered fire.
        self.slot_time = -1.0
        self.slot_seq = -1

    def __call__(self, payload: Any) -> None:
        process = self.process
        sim = process.sim
        now = sim._now
        if self.slot_seq > sim._seq and self.slot_time == now:
            # Pending slot: the process is logically not registered yet.
            if process.finished:
                return
            if self.predicate(payload):
                # The resume at the slot takes the step counted for it.
                process.steps -= 1
                sim._queue.push_reserved(now, self.slot_seq, process._resume_none)
            else:
                self.signal._insert(self, now, self.slot_seq)
            return
        if process.finished or self.predicate(payload):
            process._resume_later(payload)
            return
        self.slot_time = now
        self.slot_seq = sim._queue.reserve_seq()
        process.steps += 1
        process.waiting_since = now
        # The fresh seq is the greatest key any registration holds.
        self.signal._waiters.append(self)
