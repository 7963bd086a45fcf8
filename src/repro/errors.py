"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A failure inside the discrete-event simulation kernel."""


class ProcessError(SimulationError):
    """A simulated process misbehaved (bad yield value, double resume...)."""


class StallError(SimulationError):
    """The progress watchdog detected a silent hang.

    Raised by :class:`repro.sim.watchdog.Watchdog` when the simulation
    exceeds its simulated-time budget, when no runnable event remains
    while processes are still blocked, or when no process advances for
    several consecutive checks.  The message names every blocked process
    and what it is waiting on.
    """


class TopologyError(ReproError):
    """An invalid network topology or routing request."""


class NetworkError(ReproError):
    """A failure in the simulated network layer."""


class MemoryError_(ReproError):
    """A failure in the DSM memory substrate.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`MemoryError`.
    """


class UnknownVariableError(MemoryError_):
    """A variable name was used before being declared in a sharing group."""


class GroupMembershipError(MemoryError_):
    """A node accessed a sharing group it is not a member of."""


class ConsistencyError(ReproError):
    """A consistency-model invariant was violated."""


class SequencingError(ConsistencyError):
    """Group-write-consistency sequencing was violated (gap or reorder)."""


class InvariantViolationError(ConsistencyError):
    """An online safety oracle caught a violated invariant mid-run.

    Raised by :class:`repro.consistency.oracles.InvariantMonitor` the
    instant an armed invariant fails: lock mutual exclusion, sequencer
    epoch/cursor monotonicity, apply-stream gap absence, or single-writer
    token integrity.  ``oracle`` names the failed check and ``evidence``
    carries the monitor's recent observation trail ending in the
    violating observation, so a campaign repro bundle can show *how* the
    run reached the bad state, not just that it did.
    """

    def __init__(
        self,
        message: str,
        oracle: str = "",
        evidence: "tuple[str, ...] | list[str]" = (),
    ) -> None:
        super().__init__(message)
        self.oracle = oracle
        self.evidence = tuple(evidence)


class LockError(ReproError):
    """A failure in a lock protocol."""


class LockNestingError(LockError):
    """A processor attempted to re-acquire a lock it already holds.

    Mirrors line (28) of the paper's Figure 4: ``ERROR(Cannot safely nest
    mutex lock requests)``.
    """


class LockStateError(LockError):
    """A lock operation was attempted in an invalid state (e.g. releasing
    a lock the caller does not hold)."""


class LockTimeoutError(LockError):
    """A lock request exhausted its retry budget without being granted.

    Raised by :class:`repro.locks.gwc_lock.GwcLockClient` when a
    :class:`~repro.locks.gwc_lock.LockRetryPolicy` is configured and
    every timed request attempt (with exponential backoff between
    retries) expired before the grant arrived — typically because the
    lock holder or the group root crashed, or a partition swallowed the
    request.
    """


class RollbackError(ReproError):
    """A failure while saving or restoring optimistic rollback state."""


class WorkloadError(ReproError):
    """A workload was configured with invalid parameters."""


class ExperimentError(ReproError):
    """An experiment sweep was configured with invalid parameters."""


class FaultError(ReproError):
    """An invalid fault plan or fault-injection request.

    Raised when a :class:`repro.faults.plan.FaultPlan` is malformed
    (crash of an unknown node, heal of a partition that was never cut,
    overlapping injector installs) or when a chaos scenario is
    incompatible with the requested consistency system.
    """


class RootFailoverError(FaultError):
    """Group-root failover could not complete.

    Raised by :class:`repro.faults.failover.RootFailoverManager` when a
    crashed group root has no live member left to elect as successor,
    or when the reconstruction quorum cannot be assembled (every
    surviving member unreachable).  Also raised by ``restart()`` of a
    member whose group has no live root to re-inshare from.
    """
