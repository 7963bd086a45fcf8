"""The popped heap schedule of a run, as one digest.

Pinning ``(time, seq)`` of every heap entry a run pops pins its schedule
itself, not only its results: a change that moves, adds or drops one
heap entry moves the digest.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import struct

from repro.memory.store import LocalStore
from repro.sim.kernel import Simulator
from repro.sim.process import Process


def unfiltered_wait_until(store, name, predicate):
    """:meth:`LocalStore.wait_until` with the test in the process: every
    write resumes the waiter, which re-reads and re-tests.  The reference
    a filtered wait must be order-exact against (install it with
    ``monkeypatch.setattr(LocalStore, "wait_until", unfiltered_wait_until)``).
    """
    value = store.read(name)
    signal = store.signal_for(name)
    while not predicate(value):
        yield signal
        value = store.read(name)
    return value


def _resumed_process(target):
    """The process a heap entry's target resumes, or ``None``."""
    if isinstance(target, functools.partial):
        target = target.func
    if getattr(target, "__func__", None) is Process._resume:
        return target.__self__
    return None


def _store_wait(process):
    """``(wait_until generator, awaited signal)`` of a process blocked in
    :meth:`LocalStore.wait_until` (as installed now), else ``None``."""
    if process.finished or process.waiting_on is None:
        return None
    gen = process.gen
    while gen.gi_yieldfrom is not None and hasattr(gen.gi_yieldfrom, "gi_code"):
        gen = gen.gi_yieldfrom
    if gen.gi_code is not LocalStore.wait_until.__code__:
        return None
    return gen, process.waiting_on


def popped_schedule_sha256(monkeypatch, sim, run, *, drop_false_wakes=False):
    """sha256 over the ``(time, seq)`` of every entry ``Simulator.run``
    pops off ``sim``'s heap while ``run()`` executes.

    ``sim=None`` takes the first :class:`Simulator` that ``run()`` builds.
    With ``drop_false_wakes`` a false wake is left out: the resume of a
    process blocked in ``wait_until`` by a fire whose value fails its
    predicate, after which the process waits again, in the same call, on
    the same store signal.  That is the stream of a tree whose store
    waits re-test in the process, with the wakes that filtering at fire
    time removes dropped.
    """
    digest = hashlib.sha256()
    heaps = [] if sim is None else [sim._queue._heap]
    real_pop = heapq.heappop
    #: (key bytes, process, its wait before the resume) of the last pop.
    held = []

    def settle():
        if held:
            key, process, before = held.pop()
            if before is None or _store_wait(process) != before:
                digest.update(key)

    def recording_pop(target):
        entry = real_pop(target)
        if heaps and target is heaps[0]:
            key = struct.pack("<dq", entry[0], entry[1])
            if not drop_false_wakes:
                digest.update(key)
            else:
                settle()
                process = _resumed_process(entry[2])
                before = None if process is None else _store_wait(process)
                if before is not None:
                    fired = entry[3] if len(entry) == 4 else None
                    if before[0].gi_frame.f_locals["predicate"](fired):
                        before = None
                held.append((key, process, before))
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappop", recording_pop)
        if sim is None:
            original_init = Simulator.__init__

            def capturing_init(self, *args, **kwargs):
                original_init(self, *args, **kwargs)
                if not heaps:
                    heaps.append(self._queue._heap)

            patch.setattr(Simulator, "__init__", capturing_init)
        run()
        settle()
    return digest.hexdigest()
