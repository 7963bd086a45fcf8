"""Events and the time-ordered event queue.

Events are ordered by ``(time, sequence)``.  The monotonically
increasing sequence number makes ordering total and deterministic: two
events scheduled for the same instant fire in the order they were
scheduled, regardless of heap internals.

Performance note: the heap stores plain ``(time, seq, event)``
tuples rather than the :class:`Event` handles themselves.  Tuple
comparison happens entirely in C, which roughly halves the cost of every
``heappush``/``heappop`` relative to comparing Python objects.  The
``seq`` element is unique, so the trailing :class:`Event` is never
compared.  :class:`Event` stays the public, cancellable handle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A single scheduled callback.

    Attributes:
        time: Simulated time at which the event fires.
        seq: Scheduling order, the tie-break for events at the same time.
        fn: Callback invoked when the event fires.
        cancelled: Set by :meth:`cancel`; cancelled events are skipped.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[[], Any],
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        #: The queue currently holding this event; ``None`` once popped.
        self._queue: "EventQueue | None" = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(time={self.time}, seq={self.seq}, {state})"

    def cancel(self) -> None:
        """Mark this event so the queue skips it when popped.

        Cancellation is routed through the owning queue, so the queue's
        live count stays exact without any separate bookkeeping call.
        Cancelling twice, or cancelling an event that already fired, is
        a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._live -= 1


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    __slots__ = ("_heap", "_next_seq", "_live")

    def __init__(self) -> None:
        #: Heap entries are ``(time, seq, target)`` tuples, optionally
        #: extended with a single call argument: ``(time, seq, fn, arg)``.
        #: ``target`` is either a cancellable :class:`Event` or a bare
        #: callable.
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, fn: Callable[[], Any]) -> Event:
        """Schedule ``fn`` at ``time`` and return the cancellable event."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, fn)
        event._queue = self
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_fn(self, time: float, fn: Callable[[], Any]) -> None:
        """Schedule ``fn`` at ``time`` without a cancellable handle.

        The hot-path variant of :meth:`push`: the bare callable goes
        straight into the heap tuple, skipping the :class:`Event`
        allocation entirely.  Use it for fire-and-forget events (message
        deliveries, process steps) that nothing ever cancels.
        """
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (time, seq, fn))
        self._live += 1

    def push_call(
        self, time: float, fn: Callable[[Any], Any], arg: Any
    ) -> None:
        """Schedule ``fn(arg)`` at ``time`` without a cancellable handle.

        Like :meth:`push_fn` but carries one argument in the heap entry
        itself, so hot senders need no ``partial``/closure allocation
        per event.
        """
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (time, seq, fn, arg))
        self._live += 1

    def reserve_seq(self) -> int:
        """Take the next sequence number without scheduling anything.

        The holder may later push at that number with
        :meth:`push_reserved`, or never: every key pushed after the
        reservation stays what it would have been had an entry taken the
        number.  This lets a caller drop an entry whose execution would
        be a no-op without moving any other entry's ``(time, seq)``.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def push_reserved(self, time: float, seq: int, target: Any) -> None:
        """Schedule ``target`` at ``(time, seq)``, a number from :meth:`reserve_seq`.

        ``target`` is a bare callable or an :class:`Event`; an event is
        re-keyed and becomes live (and cancellable) again, so a popped
        event may re-push itself at a reserved key.
        """
        if target.__class__ is Event:
            target.time = time
            target.seq = seq
            target._queue = self
        heappush(self._heap, (time, seq, target))
        self._live += 1

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Handle-less entries (see :meth:`push_fn` / :meth:`push_call`)
        are wrapped in a fresh, already-dequeued :class:`Event` so
        callers see one type.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            target = entry[2]
            if target.__class__ is Event:
                if target.cancelled:
                    continue
                target._queue = None
                self._live -= 1
                return target
            self._live -= 1
            if len(entry) == 4:
                arg = entry[3]
                return Event(entry[0], entry[1], lambda: target(arg))
            return Event(entry[0], entry[1], target)
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> float:
        """Time of the earliest non-cancelled event without removing it."""
        heap = self._heap
        while heap:
            head = heap[0][2]
            if head.__class__ is Event and head.cancelled:
                heappop(heap)
                continue
            return heap[0][0]
        raise SimulationError("peek on empty event queue")
