"""Generator-based simulated processes.

A process is a Python generator driven by the simulator.  Each ``yield``
suspends the process until the yielded request completes:

=======================  ====================================================
Yielded value            Meaning
=======================  ====================================================
``float`` / ``int``      Sleep for that many simulated seconds (``>= 0``).
:class:`Future`          Wait until resolved; ``yield`` returns the value.
:class:`Signal`          Wait for the next fire; ``yield`` returns payload.
:class:`Process`         Join: wait until that process finishes; ``yield``
                         returns its return value.
``None``                 Reschedule immediately (lets same-time events run).
=======================  ====================================================

Exceptions raised inside a process propagate out of :meth:`Simulator.run`,
so model bugs fail tests loudly instead of silently killing a process.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator

from repro.errors import ProcessError
from repro.sim.waiters import Future, Signal


class Process:
    """A simulated thread of control.

    Not instantiated directly; use :meth:`repro.sim.kernel.Simulator.spawn`.
    """

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821 - avoids circular import
        gen: Generator[Any, Any, Any],
        name: str,
    ) -> None:
        if not hasattr(gen, "send"):
            raise ProcessError(
                f"process {name!r} must be built from a generator, got {type(gen)!r}"
            )
        self.sim = sim
        self.gen = gen
        self.name = name
        self.finished = False
        #: Set by :meth:`kill`: the process was forcibly terminated (a
        #: simulated node crash) rather than running to completion.
        self.killed = False
        self.result: Any = None
        #: Total generator steps taken — the watchdog's progress signal.
        self.steps = 0
        #: The waitable this process is currently blocked on (a
        #: :class:`Future`, :class:`Signal`, or :class:`Process`), or
        #: ``None`` when runnable/sleeping.  Feeds stall diagnostics.
        self.waiting_on: Any = None
        self.waiting_since: float = 0.0
        self._completion = Future(name=f"{name}.done")
        # Process steps are fire-and-forget: nothing in the library
        # cancels a pending resume, so steps use the simulator's
        # handle-less fast path (no Event allocation per step).  The
        # push is bound once; delays are validated in _dispatch, so the
        # past-check in Simulator.schedule is redundant here.
        self._resume_none = partial(self._resume, None)
        self._push = sim._queue.push_fn
        # Start the process "now" so spawn order equals first-step order.
        self._push(sim._now, self._resume_none)

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"

    @property
    def completion(self) -> Future:
        """A future resolved with the process's return value at exit."""
        return self._completion

    def kill(self) -> None:
        """Forcibly terminate the process (simulated node crash).

        The generator is closed (running any pending cleanup), the
        process is marked finished+killed, and joiners are resumed with
        ``None``.  Already-scheduled resume events become no-ops, as do
        waiter callbacks the process left behind on signals or futures.
        Killing a finished process is a no-op.
        """
        if self.finished:
            return
        self.killed = True
        self.finished = True
        self.waiting_on = None
        self.gen.close()
        if not self._completion.resolved:
            self._completion.resolve(None)

    def describe_wait(self) -> str:
        """Human-readable account of what this process is blocked on."""
        if self.finished:
            return "killed" if self.killed else "finished"
        target = self.waiting_on
        if target is None:
            return "runnable (next step scheduled)"
        if isinstance(target, Future):
            what = f"future {target.name!r}"
        elif isinstance(target, Signal):
            what = f"signal {target.name!r}"
        elif isinstance(target, Process):
            what = f"join on process {target.name!r}"
        else:  # pragma: no cover - defensive
            what = repr(target)
        return f"waiting on {what} since t={self.waiting_since:.9g}"

    def _resume(self, value: Any) -> None:
        """Advance the generator one step, dispatching its next request."""
        if self.finished:
            if self.killed:
                # A resume scheduled before the crash; the node is gone.
                return
            raise ProcessError(f"process {self.name!r} resumed after finish")
        self.steps += 1
        self.waiting_on = None
        try:
            request = self.gen.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self._completion.resolve(stop.value)
            return
        self._dispatch(request)

    def _dispatch(self, request: Any) -> None:
        # Exact-class tests first: a wait on a plain Future and a sleep
        # are the two hot requests; subclasses reach the isinstance arms.
        if request.__class__ is Future:
            self.waiting_on = request
            self.waiting_since = self.sim._now
            request.add_callback(self._resume_later)
        elif request.__class__ is float or request.__class__ is int:
            if request < 0:
                raise ProcessError(
                    f"process {self.name!r} yielded a negative delay: {request}"
                )
            self._push(self.sim._now + request, self._resume_none)
        elif request is None:
            self._push(self.sim._now, self._resume_none)
        elif isinstance(request, (int, float)):
            # Subclasses of int/float (e.g. bool) still mean "sleep".
            if request < 0:
                raise ProcessError(
                    f"process {self.name!r} yielded a negative delay: {request}"
                )
            self._push(self.sim._now + float(request), self._resume_none)
        elif isinstance(request, (Future, Signal)):
            self.waiting_on = request
            self.waiting_since = self.sim._now
            request.add_callback(self._resume_later)
        elif isinstance(request, Process):
            self.waiting_on = request
            self.waiting_since = self.sim._now
            request.completion.add_callback(self._resume_later)
        else:
            raise ProcessError(
                f"process {self.name!r} yielded an unsupported value: {request!r}"
            )

    def _resume_later(self, value: Any) -> None:
        """Resume via a zero-delay event so wakes never nest inside fires.

        Firing a signal from arbitrary model code must not re-enter the
        process synchronously; scheduling the resume keeps the event loop
        the only caller of process code.
        """
        if value is None:
            self._push(self.sim._now, self._resume_none)
        else:
            self.sim._queue.push_call(self.sim._now, self._resume, value)
