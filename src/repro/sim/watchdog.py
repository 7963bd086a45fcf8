"""Progress watchdog: convert silent hangs into diagnosable failures.

A deadlocked simulation normally surfaces only at the very end (the
event queue drains and :meth:`Simulator.check_quiescent` flags blocked
processes) — and a *livelocked* one never surfaces at all: recurring
protocol events (heartbeats, lease checks, retry timers) keep the queue
non-empty forever while no process advances.  The :class:`Watchdog`
closes both holes: it checks the simulation at a fixed simulated-time
interval and raises :class:`~repro.errors.StallError` — carrying
per-process blocked/wait-reason diagnostics — when

1. the clock passes ``max_sim_time`` (the hard budget guard),
2. no runnable event other than the watchdog itself remains while
   processes are still blocked (a drained-queue deadlock), or
3. no process has taken a generator step for ``patience`` consecutive
   checks (a livelock: events fire but nothing progresses).

The watchdog disarms itself once every process has finished, so a
healthy run is never kept alive by its checks.
"""

from __future__ import annotations

from repro.errors import SimulationError, StallError
from repro.sim.event import Event
from repro.sim.kernel import Simulator

#: Above this heap size the live-event scan is skipped: a stalled
#: simulation has a near-empty queue, so a big heap means live work.
_SCAN_LIMIT = 64

#: At most this many blocked processes are named in a stall report.
_REPORT_LIMIT = 20


class Watchdog:
    """Periodic no-progress and time-budget monitor for one simulator."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        max_sim_time: float | None = None,
        patience: int = 3,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"watchdog interval must be > 0: {interval}")
        if patience < 1:
            raise SimulationError(f"watchdog patience must be >= 1: {patience}")
        if max_sim_time is not None and max_sim_time <= 0:
            raise SimulationError(
                f"watchdog max_sim_time must be > 0: {max_sim_time}"
            )
        self.sim = sim
        self.interval = interval
        self.max_sim_time = max_sim_time
        self.patience = patience
        #: Diagnostics.
        self.checks = 0
        self.armed = False
        self._strikes = 0
        self._last_progress = -1

    def arm(self) -> None:
        """Schedule the first check; re-arming a live watchdog is a no-op."""
        if self.armed:
            return
        self.armed = True
        self._strikes = 0
        self._last_progress = self._progress()
        self.sim.schedule(self.interval, self._check)

    def disarm(self) -> None:
        """Stop checking (the pending check event becomes a no-op)."""
        self.armed = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _progress(self) -> int:
        """Total generator steps across all processes (monotone)."""
        return sum(p.steps for p in self.sim._processes)

    def _other_live_events(self) -> bool:
        """Any live event in the queue besides this check's reschedule?

        Called while the watchdog's own check event is executing, so the
        run loop has already popped it; every live heap entry therefore
        belongs to someone else.  (``pending_events`` cannot be used
        here: the run loop defers its live-count bookkeeping.)
        """
        heap = self.sim._queue._heap
        if len(heap) > _SCAN_LIMIT:
            return True
        for entry in heap:
            target = entry[2]
            if target.__class__ is Event and target.cancelled:
                continue
            return True
        return False

    def _check(self) -> None:
        if not self.armed:
            return
        self.checks += 1
        sim = self.sim
        blocked = sim.blocked_processes()
        if not blocked:
            # Workload complete: stop checking so the queue can drain.
            self.armed = False
            return
        if self.max_sim_time is not None and sim.now >= self.max_sim_time:
            raise StallError(
                self._report(
                    f"simulated time {sim.now:.9g} exceeded the "
                    f"max_sim_time budget {self.max_sim_time:.9g}",
                    blocked,
                )
            )
        if not self._other_live_events():
            raise StallError(
                self._report(
                    "no runnable events remain (drained-queue deadlock)",
                    blocked,
                )
            )
        progress = self._progress()
        if progress == self._last_progress:
            self._strikes += 1
            if self._strikes >= self.patience:
                raise StallError(
                    self._report(
                        f"no process progressed for {self._strikes} "
                        f"consecutive checks ({self.interval:.9g}s apart)",
                        blocked,
                    )
                )
        else:
            self._strikes = 0
            self._last_progress = progress
        sim.schedule(self.interval, self._check)

    def _report(self, headline: str, blocked: list) -> str:
        lines = [
            f"stall detected at t={self.sim.now:.9g}: {headline}; "
            f"{len(blocked)} process(es) blocked:"
        ]
        for process in blocked[:_REPORT_LIMIT]:
            lines.append(f"  - {process.name}: {process.describe_wait()}")
        if len(blocked) > _REPORT_LIMIT:
            lines.append(f"  ... and {len(blocked) - _REPORT_LIMIT} more")
        return "\n".join(lines)
