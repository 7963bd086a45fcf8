"""The randomized chaos-campaign engine behind ``repro campaign``.

Where ``repro chaos`` replays a fixed hand-written scenario matrix,
a *campaign* generates seeded random fault plans from weighted
profiles, runs N trials across systems x topologies, holds every trial
to the online oracles of :mod:`repro.consistency.oracles`, and — when a
trial fails — delta-debugs the fault plan down to a 1-minimal failing
schedule and writes a reproducible repro bundle through the atomic
:class:`~repro.goldens.writer.RunWriter` protocol.

Three layers:

1. :func:`generate_plan` — the seeded plan generator (also exposed as
   :meth:`FaultPlan.generate <repro.faults.plan.FaultPlan.generate>`).
   Profiles: ``churn`` (sequential crash/restart pairs), ``splitbrain``
   (bounded partition windows + wire noise), ``rootstorm`` (kill the
   sequencer and a lock holder mid-section), ``wire`` (deterministic
   FIFO-preserving delay windows), and ``mixed`` (a weighted blend).
   Generated plans always pass
   :meth:`~repro.faults.plan.FaultPlan.validate` for their ``n_nodes``
   and are *survivable by design* under the full recovery stack: plain
   crashes never hit node 0, at most one node is down at a time,
   partitions exclude the root and always carry a bounded ``until``
   window, and holder/root kills fire early enough to land mid-run.
2. :func:`run_campaign` — the trial runner.  Every trial runs with
   ``oracles=True``.
3. :func:`minimize_failure` — classic ddmin over the plan's events,
   then node-count and fault-window shrinking, re-probing after each
   step so the final plan still reproduces the *same* failure signature
   and is locally minimal (removing any single event loses the
   failure).  :func:`write_bundle` / :func:`replay_bundle` round-trip
   the minimized repro through JSON.

Everything is deterministic per ``(config, seed)``: two identical
campaigns emit byte-identical summary CSVs, which the ``campaign``
golden surface pins.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import ExperimentError, FaultError, ReproError
from repro.faults.chaos import (
    GWC_FAMILY,
    WORKLOADS,
    ChaosConfig,
    ChaosResult,
    chaos_csv_row,
    require_known,
    run_chaos,
)
from repro.faults.plan import (
    CRASH,
    DELAY,
    FaultEvent,
    FaultPlan,
    crash,
    delay,
    duplicate,
    partition,
    restart,
)
from repro.net.topology import make_topology
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads import counter as counter_wl
from repro.workloads import task_queue as tq_wl

#: Fault-plan profiles (see module docstring).
PROFILES = ("churn", "splitbrain", "rootstorm", "wire", "mixed")

#: Profiles whose plans are free of crash events (legal on task_queue).
CRASH_FREE_PROFILES = ("splitbrain", "wire")

#: Probe budget for one minimization (each probe is a full chaos run).
DEFAULT_PROBE_BUDGET = 400

#: Repro bundles are written under this surface label.
BUNDLE_SURFACE = "campaign-repro"


def recovery_unit(
    n_nodes: int,
    topology: str = "mesh_torus",
    params: MachineParams = PAPER_PARAMS,
) -> float:
    """The machine's recovery unit (NACK timeout) without building one."""
    return params.nack_timeout(make_topology(topology, n_nodes).diameter())


# ----------------------------------------------------------------------
# The seeded plan generator
# ----------------------------------------------------------------------


def _wire_noise(
    rng: random.Random, unit: float, deterministic: bool
) -> list[FaultEvent]:
    """One bounded delay window; ``deterministic`` draws no per-message RNG."""
    start = rng.uniform(2.0, 40.0) * unit
    width = rng.uniform(30.0, 120.0) * unit
    return [
        delay(
            start,
            extra=rng.uniform(1.0, 3.0) * unit,
            until=start + width,
            jitter=0.0 if deterministic else rng.uniform(0.0, 0.5),
            probability=1.0 if deterministic else rng.uniform(0.4, 1.0),
            preserve_fifo=True,
        )
    ]


def _churn_events(
    rng: random.Random, n_nodes: int, unit: float
) -> list[FaultEvent]:
    """Sequential crash/restart pairs: at most one node down at a time."""
    events: list[FaultEvent] = []
    t = rng.uniform(8.0, 30.0) * unit
    for _ in range(rng.randint(2, 3)):
        victim = rng.randrange(1, n_nodes)
        down = rng.uniform(20.0, 45.0) * unit
        events.append(crash(t, node=victim))
        events.append(restart(t + down, node=victim))
        t += down + rng.uniform(15.0, 40.0) * unit
    if rng.random() < 0.5:
        events.extend(_wire_noise(rng, unit, deterministic=False))
    return events


def _splitbrain_events(
    rng: random.Random, n_nodes: int, unit: float
) -> list[FaultEvent]:
    """Bounded partition windows (root stays connected) + wire noise."""
    events: list[FaultEvent] = []
    t = rng.uniform(8.0, 30.0) * unit
    island_cap = max(1, (n_nodes - 1) // 2)
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(1, island_cap)
        island = tuple(sorted(rng.sample(range(1, n_nodes), size)))
        width = rng.uniform(25.0, 55.0) * unit
        events.append(partition(t, nodes=island, until=t + width))
        t += width + rng.uniform(10.0, 30.0) * unit
    events.extend(_wire_noise(rng, unit, deterministic=False))
    if rng.random() < 0.5:
        start = rng.uniform(2.0, 30.0) * unit
        events.append(
            duplicate(
                start,
                until=start + rng.uniform(40.0, 120.0) * unit,
                probability=rng.uniform(0.2, 0.6),
            )
        )
    return events


def _rootstorm_events(
    rng: random.Random, unit: float, lock: str, group: str
) -> list[FaultEvent]:
    """Kill the sequencer (and maybe a holder) mid-critical-section.

    Both kills fire early (< 40 units): the injector retries these
    until the lock/root shape holds, so they must land while the
    workload is still generating lock traffic.  When both fire, the
    holder dies *first* — a holder kill scheduled after the root kill
    can land inside the failover window, when the lock may never again
    have a live holder before the (shortened) run drains.
    """
    events: list[FaultEvent] = []
    if rng.random() < 0.6:
        events.append(crash(rng.uniform(8.0, 18.0) * unit, holder_of=lock))
        events.append(crash(rng.uniform(22.0, 40.0) * unit, root_of=group))
    else:
        events.append(crash(rng.uniform(8.0, 25.0) * unit, root_of=group))
    if rng.random() < 0.5:
        events.extend(_wire_noise(rng, unit, deterministic=False))
    return events


def _mixed_events(
    rng: random.Random, n_nodes: int, unit: float, lock: str, group: str
) -> list[FaultEvent]:
    """A weighted blend: one structural fault + optional wire faults."""
    events: list[FaultEvent] = []
    roll = rng.random()
    if roll < 0.35:
        victim = rng.randrange(1, n_nodes)
        t = rng.uniform(8.0, 30.0) * unit
        events.append(crash(t, node=victim))
        events.append(restart(t + rng.uniform(20.0, 45.0) * unit, node=victim))
    elif roll < 0.6:
        events.append(crash(rng.uniform(8.0, 30.0) * unit, holder_of=lock))
    elif roll < 0.8:
        events.append(crash(rng.uniform(8.0, 25.0) * unit, root_of=group))
    else:
        size = rng.randint(1, max(1, (n_nodes - 1) // 2))
        island = tuple(sorted(rng.sample(range(1, n_nodes), size)))
        t = rng.uniform(8.0, 30.0) * unit
        events.append(partition(t, nodes=island, until=t + rng.uniform(25.0, 50.0) * unit))
    if rng.random() < 0.6:
        events.extend(_wire_noise(rng, unit, deterministic=False))
    if rng.random() < 0.3:
        start = rng.uniform(2.0, 30.0) * unit
        events.append(
            duplicate(
                start,
                until=start + rng.uniform(40.0, 100.0) * unit,
                probability=rng.uniform(0.2, 0.5),
            )
        )
    return events


def generate_plan(
    seed: int,
    n_nodes: int,
    horizon: float,
    profile: str = "mixed",
    lock: str = counter_wl.LOCK,
    group: str = counter_wl.GROUP,
) -> FaultPlan:
    """Generate a seeded random fault plan from a named profile.

    Deterministic per ``(seed, n_nodes, horizon, profile)``; the result
    always passes :meth:`FaultPlan.validate` for ``n_nodes``.
    ``horizon`` is the expected active span of the run in seconds; all
    fault times are scaled to ``horizon / 400`` so plans transfer
    across parameter sets.  ``lock`` / ``group`` name the targets of
    holder/root kills (defaults: the counter workload's).
    """
    if profile not in PROFILES:
        raise FaultError(
            f"unknown campaign profile {profile!r}; known: "
            f"{', '.join(PROFILES)}"
        )
    if n_nodes < 3:
        raise FaultError(
            f"campaign plans need >= 3 nodes for survivable faults "
            f"(got {n_nodes})"
        )
    if horizon <= 0:
        raise FaultError(f"plan horizon must be > 0: {horizon}")
    rng = random.Random(f"campaign/{profile}/{seed}/{n_nodes}")
    unit = horizon / 400.0
    if profile == "churn":
        events = _churn_events(rng, n_nodes, unit)
    elif profile == "splitbrain":
        events = _splitbrain_events(rng, n_nodes, unit)
    elif profile == "rootstorm":
        events = _rootstorm_events(rng, unit, lock, group)
    elif profile == "wire":
        events = []
        for _ in range(rng.randint(2, 4)):
            events.extend(_wire_noise(rng, unit, deterministic=True))
    else:  # mixed
        events = _mixed_events(rng, n_nodes, unit, lock, group)
    plan = FaultPlan(events, seed=seed)
    plan.validate(n_nodes)
    return plan


# ----------------------------------------------------------------------
# Campaign configuration and trial enumeration
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """One randomized campaign: N seeded trials."""

    trials: int = 25
    seed: int = 7
    #: A profile name or "all" (round-robin over every profile).
    profile: str = "mixed"
    systems: tuple[str, ...] = GWC_FAMILY
    workload: str = "counter"
    n_nodes: int = 6
    ops_per_node: int = 6
    topologies: tuple[str, ...] = ("mesh_torus", "ring")
    #: Expected active run span, in recovery units (scales fault times).
    horizon_units: float = 400.0
    minimize: bool = True
    probe_budget: int = DEFAULT_PROBE_BUDGET
    #: Where failing trials' repro bundles land (None = don't write).
    bundle_dir: str | None = None
    recovery: bool = True
    failover: bool = True
    #: Arm the known-bad lease configuration on every chaos trial (the
    #: acceptance scenario: oracles must catch it).
    broken_lease: bool = False
    #: Lease duration in recovery units (None = run_chaos default).
    lease_units: float | None = None
    #: Critical-section service time in seconds (None = run_chaos
    #: default).  Stretching sections past the lease is how the
    #: broken-lease acceptance forces overlapping holders.
    section_time_s: float | None = None
    params: MachineParams = PAPER_PARAMS

    def validate(self) -> None:
        """Reject an unrunnable campaign with a :class:`FaultError`.

        The one copy of the campaign input checks:
        :func:`campaign_trials` calls it first, and the CLI maps a
        failure to a usage error (exit 2) before running anything.
        """
        require_known("profile", self.profile, PROFILES + ("all",))
        require_known("workload", self.workload, WORKLOADS)
        non_gwc = [name for name in self.systems if name not in GWC_FAMILY]
        if non_gwc:
            raise FaultError(
                f"campaign trials need the GWC-family recovery stack; "
                f"{', '.join(non_gwc)} not in: {', '.join(GWC_FAMILY)}"
            )
        if self.trials < 1:
            raise FaultError(f"campaign needs >= 1 trial (got {self.trials})")
        if self.n_nodes < 3:
            raise FaultError(
                f"campaign plans need >= 3 nodes for survivable faults "
                f"(got {self.n_nodes})"
            )
        if not _campaign_profiles(self):
            raise FaultError(
                "task_queue campaigns need a crash-free profile "
                f"({', '.join(CRASH_FREE_PROFILES)} or 'all'); crashed "
                "consumers permanently lose their claimed task"
            )


@dataclass(frozen=True, slots=True)
class CampaignTrial:
    """One enumerated trial."""

    index: int
    profile: str
    system: str
    workload: str
    topology: str
    seed: int
    config: ChaosConfig


def _campaign_profiles(config: CampaignConfig) -> tuple[str, ...]:
    """The profiles the trials cycle through (empty: none is runnable)."""
    profiles = PROFILES if config.profile == "all" else (config.profile,)
    if config.workload == "task_queue":
        profiles = tuple(p for p in profiles if p in CRASH_FREE_PROFILES)
    return profiles


def campaign_trials(config: CampaignConfig) -> list[CampaignTrial]:
    """Enumerate the campaign deterministically (no RNG draws here)."""
    config.validate()
    profiles = _campaign_profiles(config)
    if config.workload == "counter":
        lock, group = counter_wl.LOCK, counter_wl.GROUP
    else:
        lock, group = tq_wl.LOCK, tq_wl.GROUP
    cross = [
        (profile, system, topology)
        for profile in profiles
        for system in config.systems
        for topology in config.topologies
    ]
    trials: list[CampaignTrial] = []
    for i in range(config.trials):
        profile, system, topology = cross[i % len(cross)]
        seed = config.seed * 1009 + i
        unit = recovery_unit(config.n_nodes, topology, config.params)
        plan = generate_plan(
            seed,
            config.n_nodes,
            config.horizon_units * unit,
            profile,
            lock=lock,
            group=group,
        )
        chaos_config = ChaosConfig(
            system=system,
            workload=config.workload,
            scenario=f"campaign:{profile}",
            n_nodes=config.n_nodes,
            ops_per_node=config.ops_per_node,
            seed=seed,
            plan=plan,
            recovery=config.recovery,
            failover=config.failover,
            params=config.params,
            lease_duration=(
                config.lease_units * unit
                if config.lease_units is not None
                else None
            ),
            topology=topology,
            oracles=True,
            broken_lease=config.broken_lease,
            section_time=config.section_time_s,
        )
        trials.append(
            CampaignTrial(
                index=i,
                profile=profile,
                system=system,
                workload=config.workload,
                topology=topology,
                seed=seed,
                config=chaos_config,
            )
        )
    return trials


# ----------------------------------------------------------------------
# Failure signatures
# ----------------------------------------------------------------------


def failure_signature(result: ChaosResult) -> tuple[str, ...] | None:
    """Classify a failed run for minimization matching (None = passed)."""
    if result.oracle:
        return ("oracle", result.oracle)
    if result.stall is not None:
        return ("stall",)
    if result.invariant_errors:
        return ("invariant",)
    return None


# ----------------------------------------------------------------------
# The trial runners
# ----------------------------------------------------------------------


def _zero_run_values(trial: CampaignTrial, detail: str) -> dict[str, Any]:
    """Schema-complete values for a trial that errored before finishing."""
    values: dict[str, Any] = dict.fromkeys(
        (
            "final_counter",
            "chain_length",
            "lock_requests",
            "lock_timeouts",
            "lock_retries",
            "lock_reclaims",
            "failovers",
            "stale_epoch_discards",
            "rerouted_requests",
            "window_discards",
            "messages",
            "dropped",
            "fault_dropped",
            "fault_delayed",
            "fault_duplicated",
            "root_count",
            "root_load_max",
        ),
        0,
    )
    values.update(
        system=trial.system,
        workload=trial.workload,
        scenario=trial.config.scenario,
        seed=trial.seed,
        ok=False,
        converged=False,
        recovery_time_mean_s=0.0,
        root_load_mean=0.0,
        stall=detail,
    )
    return values


def _trial_prefix(
    trial: CampaignTrial, minimized: "Minimization | None"
) -> dict[str, Any]:
    plan = trial.config.plan
    return {
        "trial": trial.index,
        # One kind of trial; the column is part of the pinned CSV schema.
        "kind": "chaos",
        "profile": trial.profile,
        "topology": trial.topology,
        "plan_events": len(plan.events) if plan is not None else 0,
        "minimized_events": (
            len(minimized.plan.events) if minimized is not None else ""
        ),
    }


@dataclass(slots=True)
class TrialOutcome:
    """One campaign trial's verdict and its summary-CSV row."""

    trial: CampaignTrial
    ok: bool
    signature: tuple[str, ...] | None
    detail: str
    row: dict[str, Any]
    result: ChaosResult | None = None
    minimized: "Minimization | None" = None
    bundle_path: str | None = None

    def csv_row(self) -> dict[str, Any]:
        """The summary-CSV row (``to_csv`` reads it)."""
        return self.row


@dataclass(slots=True)
class CampaignResult:
    """All trial outcomes of one campaign."""

    config: CampaignConfig
    outcomes: list[TrialOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def failures(self) -> list[TrialOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def rows(self) -> list[dict[str, Any]]:
        return [outcome.row for outcome in self.outcomes]


def run_campaign(
    config: CampaignConfig, out: Callable[[str], None] | None = None
) -> CampaignResult:
    """Run every trial; minimize and bundle each failure."""
    say = out if out is not None else lambda line: None
    campaign = CampaignResult(config=config)
    for trial in campaign_trials(config):
        try:
            result = run_chaos(trial.config)
        except ReproError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            outcome = TrialOutcome(
                trial=trial,
                ok=False,
                signature=("error", type(exc).__name__),
                detail=detail,
                row=_chaos_run_row(
                    _zero_run_values(trial, detail), _trial_prefix(trial, None)
                ),
            )
            campaign.outcomes.append(outcome)
            say(f"[campaign] trial {trial.index:<3d} ERROR {detail}")
            continue
        signature = failure_signature(result)
        minimized: Minimization | None = None
        bundle_path: str | None = None
        if signature is not None and config.minimize:
            say(
                f"[campaign] trial {trial.index} failed "
                f"({'/'.join(signature)}); minimizing..."
            )
            minimized = minimize_failure(
                trial.config, signature, probe_budget=config.probe_budget
            )
            if config.bundle_dir:
                bundle_path = str(
                    write_bundle(
                        pathlib.Path(config.bundle_dir)
                        / f"trial-{trial.index:03d}",
                        trial,
                        minimized,
                        result,
                    )
                )
        outcome = TrialOutcome(
            trial=trial,
            ok=signature is None,
            signature=signature,
            detail=(
                result.stall
                or "; ".join(result.invariant_errors)
                or ""
            ),
            row=chaos_csv_row(result, prefix=_trial_prefix(trial, minimized)),
            result=result,
            minimized=minimized,
            bundle_path=bundle_path,
        )
        campaign.outcomes.append(outcome)
        say(
            f"[campaign] trial {trial.index:<3d} {trial.profile:<10s} "
            f"{trial.system:<14s} {trial.topology:<11s} "
            f"{'ok' if outcome.ok else 'FAIL ' + '/'.join(signature or ())}"
        )
    return campaign


def _chaos_run_row(
    values: dict[str, Any], prefix: dict[str, Any]
) -> dict[str, Any]:
    from repro.metrics.export import chaos_run_row

    return chaos_run_row(values, prefix=prefix)


#: The fixed bounded campaign behind ``repro campaign --smoke`` and the
#: ``campaign`` golden surface — keep it stable and fast (it runs inside
#: ``make test``).
SMOKE_FIELDS = dict(
    trials=6,
    seed=7,
    profile="all",
    n_nodes=6,
    ops_per_node=6,
    topologies=("mesh_torus",),
    minimize=False,
)


def smoke_config() -> CampaignConfig:
    return CampaignConfig(**SMOKE_FIELDS)


# ----------------------------------------------------------------------
# The minimizer
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Minimization:
    """Result of delta-debugging one failing trial."""

    signature: tuple[str, ...]
    plan: FaultPlan
    n_nodes: int
    probes: int
    original_events: int


class _Prober:
    """Memoized failure probe: does a candidate plan still fail the same way?"""

    def __init__(
        self,
        config: ChaosConfig,
        signature: tuple[str, ...],
        budget: int,
    ) -> None:
        self.config = config
        self.signature = signature
        self.budget = budget
        self.probes = 0
        self._cache: dict[tuple[Any, ...], bool] = {}

    def fails(self, events: tuple[FaultEvent, ...], n_nodes: int) -> bool:
        key = (events, n_nodes)
        if key in self._cache:
            return self._cache[key]
        if self.probes >= self.budget:
            # Budget exhausted: treat as not-failing so the current
            # (known-failing) candidate is kept rather than shrunk on
            # unverified guesses.
            return False
        self.probes += 1
        assert self.config.plan is not None
        candidate = dataclasses.replace(
            self.config,
            plan=FaultPlan(events, seed=self.config.plan.seed),
            n_nodes=n_nodes,
        )
        try:
            verdict = failure_signature(run_chaos(candidate)) == self.signature
        except ReproError:
            # A malformed reduction (restart of a live node, island no
            # longer a proper subset...) is a different failure, not
            # the one being minimized.
            verdict = False
        self._cache[key] = verdict
        return verdict


def ddmin(
    items: tuple[FaultEvent, ...],
    fails: Callable[[tuple[FaultEvent, ...]], bool],
) -> tuple[FaultEvent, ...]:
    """Zeller's ddmin, plus a final single-removal pass (1-minimality)."""
    if fails(()):
        return ()
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk:]
            if candidate != items and fails(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), 2 * n)
    # 1-minimality: no single event can be dropped.
    changed = True
    while changed and len(items) > 1:
        changed = False
        for i in range(len(items)):
            candidate = items[:i] + items[i + 1:]
            if fails(candidate):
                items = candidate
                changed = True
                break
    return items


def _shrink_nodes(
    events: tuple[FaultEvent, ...], prober: _Prober, n_nodes: int
) -> int:
    """Walk n_nodes down while the same failure reproduces."""
    best = n_nodes
    for candidate in range(n_nodes - 1, 2, -1):
        referenced = [e.node for e in events if e.node is not None]
        if any(node >= candidate for node in referenced):
            break
        if any(
            e.nodes and set(e.nodes) >= set(range(candidate)) for e in events
        ):
            break
        if not prober.fails(events, candidate):
            break
        best = candidate
    return best


def _shrink_windows(
    events: tuple[FaultEvent, ...], prober: _Prober, n_nodes: int
) -> tuple[FaultEvent, ...]:
    """Halve each event's fault window while the failure survives."""
    events = tuple(events)
    for index in range(len(events)):
        for _ in range(3):
            event = events[index]
            if event.until is None:
                break
            half = event.time + (event.until - event.time) / 2.0
            if half <= event.time:
                break
            candidate = (
                events[:index]
                + (dataclasses.replace(event, until=half),)
                + events[index + 1:]
            )
            if prober.fails(candidate, n_nodes):
                events = candidate
            else:
                break
    return events


def minimize_failure(
    config: ChaosConfig,
    signature: tuple[str, ...],
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> Minimization:
    """Delta-debug a failing chaos config to a 1-minimal fault plan.

    Shrinks in three phases — drop events (ddmin), shrink the node
    count, halve fault windows — re-probing after every step so the
    result still fails with the *same* signature.  The returned plan is
    locally minimal at the returned node count: removing any single
    remaining event makes the failure disappear (verified by ddmin's
    final pass; re-checked after the other phases).
    """
    if config.plan is None:
        raise FaultError("minimize_failure needs a config with an explicit plan")
    prober = _Prober(config, signature, probe_budget)
    if not prober.fails(config.plan.events, config.n_nodes):
        raise FaultError(
            "the given config does not reproduce the failure signature "
            f"{signature!r}; nothing to minimize"
        )
    events = ddmin(
        config.plan.events, lambda ev: prober.fails(ev, config.n_nodes)
    )
    n_nodes = _shrink_nodes(events, prober, config.n_nodes)
    events = _shrink_windows(events, prober, n_nodes)
    # Node/window shrinking may have unlocked further event drops.
    events = ddmin(events, lambda ev: prober.fails(ev, n_nodes))
    return Minimization(
        signature=signature,
        plan=FaultPlan(events, seed=config.plan.seed),
        n_nodes=n_nodes,
        probes=prober.probes,
        original_events=len(config.plan.events),
    )


# ----------------------------------------------------------------------
# Repro bundles
# ----------------------------------------------------------------------


def _config_payload(config: ChaosConfig) -> dict[str, Any]:
    payload = dataclasses.asdict(config)
    payload["plan"] = None  # carried separately (plan.json)
    payload["params"] = (
        "paper"
        if config.params == PAPER_PARAMS
        else dataclasses.asdict(config.params)
    )
    return payload


def _config_from_payload(payload: dict[str, Any]) -> ChaosConfig:
    fields = dict(payload)
    params = fields.pop("params", "paper")
    fields["params"] = (
        PAPER_PARAMS if params == "paper" else MachineParams(**params)
    )
    fields.pop("plan", None)
    try:
        return ChaosConfig(**fields)
    except TypeError as exc:
        raise FaultError(f"malformed repro-bundle config: {exc}") from exc


def write_bundle(
    directory: str | pathlib.Path,
    trial: CampaignTrial,
    minimized: Minimization,
    result: ChaosResult,
) -> pathlib.Path:
    """Write one failing trial's repro bundle (atomic, manifest last).

    The bundle is self-contained: ``config.json`` + ``plan.json``
    rebuild the exact failing run (:func:`replay_bundle`), and
    ``oracle.json`` records the signature, the violated oracle, and the
    monitor's evidence trail.
    """
    # Imported here: the goldens package enumerates the experiment
    # registry, which declares the campaign experiment from this module.
    from repro.goldens.writer import RunWriter

    directory = pathlib.Path(directory)
    run = RunWriter(directory, BUNDLE_SURFACE)
    config = dataclasses.replace(
        trial.config, n_nodes=minimized.n_nodes, plan=None
    )
    run.write_json("config.json", _config_payload(config))
    run.write_json("plan.json", minimized.plan.to_payload())
    run.write_json(
        "oracle.json",
        {
            "signature": list(minimized.signature),
            "oracle": result.oracle,
            "stall": result.stall,
            "invariant_errors": list(result.invariant_errors),
            "evidence": list(result.oracle_evidence),
            "probes": minimized.probes,
            "original_events": minimized.original_events,
            "minimized_events": len(minimized.plan.events),
        },
    )
    run.finalize()
    return directory


def replay_bundle(directory: str | pathlib.Path) -> ChaosResult:
    """Re-run a repro bundle's minimized failing configuration."""
    import json

    directory = pathlib.Path(directory)
    try:
        config_payload = json.loads((directory / "config.json").read_text())
        plan_payload = json.loads((directory / "plan.json").read_text())
    except (OSError, ValueError) as exc:
        raise FaultError(f"unreadable repro bundle {directory}: {exc}") from exc
    config = _config_from_payload(config_payload)
    plan = FaultPlan.from_payload(plan_payload)
    return run_chaos(dataclasses.replace(config, plan=plan))


__all__ = [
    "BUNDLE_SURFACE",
    "CRASH_FREE_PROFILES",
    "CampaignConfig",
    "CampaignResult",
    "CampaignTrial",
    "DEFAULT_PROBE_BUDGET",
    "Minimization",
    "PROFILES",
    "SMOKE_FIELDS",
    "TrialOutcome",
    "campaign_trials",
    "ddmin",
    "failure_signature",
    "generate_plan",
    "minimize_failure",
    "recovery_unit",
    "replay_bundle",
    "run_campaign",
    "smoke_config",
    "write_bundle",
]
