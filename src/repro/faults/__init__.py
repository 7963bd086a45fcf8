"""Fault injection and chaos testing for the simulated DSM.

* :mod:`repro.faults.plan` — declarative, seeded fault schedules
  (:class:`~repro.faults.plan.FaultPlan` built from
  :func:`~repro.faults.plan.crash` / :func:`~repro.faults.plan.restart` /
  :func:`~repro.faults.plan.partition` / :func:`~repro.faults.plan.heal` /
  :func:`~repro.faults.plan.delay` / :func:`~repro.faults.plan.duplicate`
  events).
* :mod:`repro.faults.injector` — :class:`~repro.faults.injector.FaultInjector`
  executes a plan against a live :class:`~repro.core.machine.DSMMachine`,
  hooking the network send/delivery paths and the process scheduler.
* :mod:`repro.faults.failover` — epoch-fenced group-root failover:
  :class:`~repro.faults.failover.RootFailoverManager` re-elects a
  sequencer after a root crash and rebuilds its sequence space and lock
  table from member-side evidence.
* :mod:`repro.faults.chaos` — the seeded chaos harness behind the
  ``repro chaos`` CLI: workloads under fault schedules with
  mutual-exclusion and RMW-chain invariants checked throughout.
* :mod:`repro.faults.campaign` — the randomized campaign engine behind
  the ``repro campaign`` CLI: :func:`~repro.faults.campaign.generate_plan`
  draws seeded fault plans from weighted profiles,
  :func:`~repro.faults.campaign.run_campaign` sweeps them across
  systems and topologies under the online invariant oracles, and
  :func:`~repro.faults.campaign.minimize_failure` ddmin-shrinks any
  failing plan to a 1-minimal reproducer bundle.

See ``docs/FAULTS.md`` for the fault model and recovery parameters.
"""

from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    crash,
    delay,
    duplicate,
    heal,
    partition,
    restart,
)
from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    generate_plan,
    minimize_failure,
    run_campaign,
)
from repro.faults.failover import RootFailoverManager
from repro.faults.injector import FaultInjector

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RootFailoverManager",
    "generate_plan",
    "minimize_failure",
    "run_campaign",
    "crash",
    "delay",
    "duplicate",
    "heal",
    "partition",
    "restart",
]
