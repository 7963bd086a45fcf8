"""The abstract DSM programming API workloads are written against.

Every consistency system provides the same operations — local/remote
reads, shared writes, value waits, lock acquire/release, and critical
section execution — so that one workload runs unchanged under group
write consistency, optimistic GWC, entry consistency, and weak/release
consistency.  All operations are generator functions driven by the
simulation kernel (``yield from system.op(...)``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Generator

from repro.core.node import NodeHandle
from repro.core.section import (
    Section,
    SectionContext,
    SectionOutcome,
    restore_from_rollback,
    snapshot_for_rollback,
)


class DsmSystem(ABC):
    """One consistency model + lock protocol bound to a machine."""

    #: Short identifier used by experiments ("gwc", "entry", ...).
    name: str = "abstract"

    def __init__(self, machine: "DSMMachine") -> None:  # noqa: F821
        self.machine = machine

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------

    @abstractmethod
    def read(self, node: NodeHandle, var: str) -> Generator[Any, Any, Any]:
        """Read a shared variable; may cost time (demand fetch)."""

    @abstractmethod
    def write(self, node: NodeHandle, var: str, value: Any) -> Generator[Any, Any, None]:
        """Write a shared variable under this model's propagation rules."""

    @abstractmethod
    def wait_value(
        self,
        node: NodeHandle,
        var: str,
        predicate: Callable[[Any], bool],
    ) -> Generator[Any, Any, Any]:
        """Block until the variable satisfies ``predicate``; returns it."""

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    @abstractmethod
    def acquire(self, node: NodeHandle, lock: str) -> Generator[Any, Any, None]:
        """Gain exclusive access to the named lock."""

    @abstractmethod
    def release(self, node: NodeHandle, lock: str) -> Generator[Any, Any, None]:
        """Give up exclusive access."""

    # ------------------------------------------------------------------
    # Critical sections
    # ------------------------------------------------------------------

    def section_write(self, node: NodeHandle, var: str, value: Any) -> None:
        """Zero-time write used by section bodies (model-specific).

        Defaults to a plain local store write; eagersharing systems
        override to forward the update toward the group root.
        """
        node.store.write(var, value)

    def run_section(
        self, node: NodeHandle, section: Section
    ) -> Generator[Any, Any, SectionOutcome]:
        """Execute one critical section: acquire, body, release.

        Systems with speculative execution override this (the optimistic
        GWC system replaces it with the Figure 4 protocol).
        """
        yield from self.acquire(node, section.lock)
        outcome = yield from self._run_body_held(node, section)
        yield from self.release(node, section.lock)
        return outcome

    def _run_body_held(
        self, node: NodeHandle, section: Section
    ) -> Generator[Any, Any, SectionOutcome]:
        """Run the body while the lock is held; time counts as useful."""
        checker = self.machine.checker
        if not self.machine.epoch_fencing:
            if checker is not None:
                checker.enter(section.lock, node.id, node.sim.now)
            ctx = SectionContext(
                node,
                write_through=lambda var, value: self.section_write(
                    node, var, value
                ),
            )
            result = yield from section.body(ctx)
            node.metrics.add_time("useful", ctx.elapsed, end=node.sim.now)
            if checker is not None:
                for counter, read_value, written_value in ctx.rmw_observations:
                    checker.observe_rmw(counter, read_value, written_value)
                checker.exit(section.lock, node.id, node.sim.now)
            return SectionOutcome(
                optimistic=False,
                rolled_back=False,
                useful_time=ctx.elapsed,
                result=result,
            )
        return (yield from self._run_body_held_fenced(node, section))

    def _run_body_held_fenced(
        self, node: NodeHandle, section: Section
    ) -> Generator[Any, Any, SectionOutcome]:
        """Epoch-fenced body execution, active under a failover manager.

        A sequencer epoch change while the body runs means the group
        root crashed mid-section: writes the body issued may have died
        with it (or been discarded by the new root as failover-window
        traffic), so the commit check treats the epoch change exactly
        like an optimistic conflict — roll the section back and re-run
        it under the new root (this node still holds the lock: the
        rebuilt lock table granted it from this node's own evidence).
        Checker bookkeeping is deferred to commit time, the same pattern
        the optimistic runner uses for speculative sections.
        """
        checker = self.machine.checker
        iface = node.iface
        group = iface.group_of(section.lock).name
        settle = self.machine.nack_timeout / 4.0
        restarts = 0
        committed = False
        while True:
            entry_epoch = iface._epoch[group]
            entered = node.sim.now
            saved = snapshot_for_rollback(node, section)
            pending: dict[str, Any] = {}

            def write_through(
                var: str, value: Any, _pending: dict[str, Any] = pending
            ) -> None:
                _pending[var] = value
                self.section_write(node, var, value)

            ctx = SectionContext(node, write_through=write_through)
            result = yield from section.body(ctx)
            if not committed and checker is not None:
                # Commit in the same simulator event as the body's last
                # write (the crash-atomicity contract the counter
                # workload relies on).  Only the first run commits: a
                # re-run restores the pre-section snapshot, so it
                # re-derives byte-identical reads and writes and the
                # first observation stays accurate for the one update
                # that ultimately lands.
                checker.enter(section.lock, node.id, entered)
                for counter, read_value, written_value in ctx.rmw_observations:
                    checker.observe_rmw(counter, read_value, written_value)
                checker.exit(section.lock, node.id, node.sim.now)
            committed = True
            # Durability barrier: a write only survives the root once it
            # has been sequenced, which this node observes as its own
            # apply coming back.  If the root died before sequencing,
            # the ack never arrives — the epoch change then triggers a
            # rollback and re-run so the committed observation's write
            # is actually re-issued under the new root.
            while (
                iface._epoch[group] == entry_epoch
                and any(
                    iface._applied.get(var) != value
                    for var, value in pending.items()
                )
            ):
                yield settle
            if iface._epoch[group] == entry_epoch:
                break
            restarts += 1
            node.metrics.count("section.epoch_restarts")
            node.metrics.add_time("wasted", ctx.elapsed, end=node.sim.now)
            restore_from_rollback(node, section, saved)
        node.metrics.add_time("useful", ctx.elapsed, end=node.sim.now)
        return SectionOutcome(
            optimistic=False,
            rolled_back=restarts > 0,
            useful_time=ctx.elapsed,
            result=result,
        )


#: Registry populated by the concrete system modules.
_SYSTEM_FACTORIES: dict[str, Callable[["DSMMachine"], DsmSystem]] = {}  # noqa: F821


def register_system(
    name: str,
    factory: Callable[["DSMMachine"], DsmSystem],  # noqa: F821
) -> None:
    """Register a consistency system under an experiment name."""
    _SYSTEM_FACTORIES[name] = factory


def system_names() -> tuple[str, ...]:
    """All registered system names (importing the implementations)."""
    _import_implementations()
    return tuple(sorted(_SYSTEM_FACTORIES))


def _import_implementations() -> None:
    # Imported lazily to avoid circular imports at package load time.
    import repro.consistency.entry  # noqa: F401
    import repro.consistency.gwc  # noqa: F401
    import repro.consistency.release  # noqa: F401
    import repro.consistency.sequential  # noqa: F401


def make_system(name: str, machine: "DSMMachine", **kwargs: Any) -> DsmSystem:  # noqa: F821
    """Build a consistency system by name, bound to ``machine``.

    Extra keyword arguments are forwarded to the system's constructor
    (e.g. ``threshold=0.5`` for ``gwc_optimistic``).
    """
    _import_implementations()
    try:
        factory = _SYSTEM_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_SYSTEM_FACTORIES))
        raise KeyError(f"unknown system {name!r}; known: {known}") from None
    return factory(machine, **kwargs)
