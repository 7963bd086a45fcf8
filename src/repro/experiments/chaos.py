"""The fault experiments: chaos matrix, failover matrix, campaign.

``chaos`` and ``failover`` are one runner — a matrix of
:func:`~repro.faults.chaos.run_chaos` runs held to the mutual-exclusion
and RMW-chain invariants — under two presets: the smoke mini-matrix and
the root-kill matrix.  ``campaign`` is
:func:`~repro.faults.campaign.run_campaign`, preset to the bounded
smoke configuration.  See ``docs/FAULTS.md``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.common import (
    Experiment,
    Files,
    Flag,
    PaperExpectation,
    name_tuple,
)
from repro.faults.campaign import (
    SMOKE_FIELDS,
    CampaignConfig,
    TrialOutcome,
    run_campaign,
)
from repro.faults.chaos import (
    CRASH_SCENARIOS,
    GWC_FAMILY,
    SCENARIOS,
    SMOKE_MATRIX,
    ChaosConfig,
    ChaosResult,
    run_chaos,
)
from repro.metrics.report import format_table


def matrix_configs(
    matrix: Sequence[tuple[str, str, str]] | None = None,
    scenario: str = "mixed",
    systems: Sequence[str] = GWC_FAMILY,
    workload: str = "counter",
    seed: int = 0,
    seeds: int = 1,
    **settings: Any,
) -> list[ChaosConfig]:
    """The validated runs of a chaos matrix, ``seeds`` seeds from ``seed``.

    Without an explicit ``matrix`` of ``(system, workload, scenario)``
    runs, one is expanded from the flags: ``mixed`` fans out to every
    scenario a system and workload support — non-GWC systems have no
    recovery stack (``delay`` only) and crashes are only meaningful on
    the counter workload.
    """
    if matrix is None and scenario != "mixed":
        matrix = [(system, workload, scenario) for system in systems]
    elif matrix is None:
        matrix = [
            (system, workload, each)
            for system in systems
            for each in (SCENARIOS if system in GWC_FAMILY else ("delay",))
            if not (workload == "task_queue" and each in CRASH_SCENARIOS)
        ]
    configs = [
        ChaosConfig(
            system=system, workload=workload, scenario=scenario, seed=each,
            **settings,
        )
        for system, workload, scenario in matrix
        for each in range(seed, seed + seeds)
    ]
    for config in configs:
        config.validate()
    return configs


def _status(result: ChaosResult) -> str:
    if result.stall is not None:
        return "STALL"
    return "FAIL" if result.invariant_errors else "ok"


def _recovery_us(result: ChaosResult) -> str:
    times = result.recovery_times
    return f"{1e6 * sum(times) / len(times):.1f}" if times else "-"


#: Chaos table: header -> cell.
_RUN_COLUMNS = {
    "system": lambda r: r.config.system,
    "workload": lambda r: r.config.workload,
    "scenario": lambda r: r.config.scenario,
    "seed": lambda r: r.config.seed,
    "status": _status,
    "done/chain": lambda r: f"{r.final_counter}/{r.chain_length}",
    "timeouts": lambda r: r.lock_timeouts,
    "retries": lambda r: r.lock_retries,
    "reclaims": lambda r: r.fault_summary["lock_reclaims"],
    "failovers": lambda r: r.fault_summary["failovers"],
    "recovery us": _recovery_us,
    "msgs": lambda r: r.messages,
    "dropped": lambda r: r.dropped,
}


def _table(columns: dict[str, Any], items: Sequence[Any], title: str) -> str:
    return format_table(
        list(columns),
        [[cell(item) for cell in columns.values()] for item in items],
        title=title,
    )


def _render_runs(results: list[ChaosResult]) -> str:
    lines = [
        _table(
            _RUN_COLUMNS, results, "Chaos soak: seeded faults vs the recovery stack"
        )
    ]
    for result in results:
        cfg = result.config
        label = f"{cfg.system}/{cfg.workload}/{cfg.scenario}/seed{cfg.seed}"
        if result.stall is not None:
            lines.append(f"STALL {label}: {result.stall}")
        for error in result.invariant_errors:
            lines.append(f"FAIL  {label}: {error}")
    ok = sum(result.ok for result in results)
    lines.append(f"chaos: {ok}/{len(results)} run(s) ok")
    return "\n".join(lines)


#: Flags ``chaos`` and ``campaign`` spell alike.
_WORKLOAD_FLAGS = (
    Flag(
        "--systems",
        "systems",
        name_tuple,
        "comma-separated consistency systems (default: the GWC family, "
        "the only one with the recovery stack)",
    ),
    Flag("--workload", "workload", str, "counter|task_queue"),
    Flag("--nodes", "n_nodes"),
    Flag("--ops", "ops_per_node", help="operations per node"),
    Flag("--seed", "seed"),
)


def _chaos_experiment(name: str, help: str, **quick: Any) -> Experiment:
    artefact = f"{name}.csv"
    return Experiment(
        name=name,
        help=help,
        quick=quick,
        run=lambda **params: {
            artefact: [run_chaos(c) for c in matrix_configs(**params)]
        },
        render=lambda files: _render_runs(files[artefact]),
        expectations=lambda files: [
            PaperExpectation(
                "every run finished with its invariants intact (no stall, "
                "no lost or phantom update)",
                all(result.ok for result in files[artefact]),
            )
        ],
        flags=(
            Flag(
                "--scenario",
                "scenario",
                str,
                "crash_holder|crash_root|churn|partition|delay|duplicate|mixed"
                " (default)",
            ),
            *_WORKLOAD_FLAGS,
            Flag("--seeds", "seeds", help="run N seeds from --seed"),
            Flag(
                "--no-recovery",
                "recovery",
                const=False,
                help="disarm leases/retries (crash scenarios then end in a STALL)",
            ),
            Flag(
                "--no-failover",
                "failover",
                const=False,
                help="disarm root re-election (crash_root then ends in a STALL)",
            ),
        ),
        csv=artefact,
        validate=matrix_configs,
        smoke_flag=name == "chaos",
    )


# Every scenario, both workloads and one non-GWC system.
CHAOS = _chaos_experiment(
    "chaos", "seeded fault injection against the recovery stack",
    matrix=SMOKE_MATRIX,
)
# Kills each group root mid-critical-section; election + reconstruction
# must converge on every seed.
FAILOVER = _chaos_experiment(
    "failover", "crash_root failover matrix (2 systems x 3 seeds)",
    scenario="crash_root", seeds=3,
)


def _run_campaign(**fields: Any) -> Files:
    campaign = run_campaign(CampaignConfig(**fields))
    return {"campaign.csv": campaign.outcomes}


def _plan_events(outcome: TrialOutcome) -> str:
    config = outcome.trial.config
    if config.plan is None:
        return "-"
    if outcome.minimized is None:
        return f"{len(config.plan.events)}"
    return f"{len(config.plan.events)}->{len(outcome.minimized.plan.events)}"


#: Campaign table: header -> cell.
_TRIAL_COLUMNS = {
    "trial": lambda o: o.trial.index,
    "profile": lambda o: o.trial.profile,
    "system": lambda o: o.trial.system,
    "topology": lambda o: o.trial.topology,
    "status": lambda o: "ok" if o.ok else "FAIL",
    "signature": lambda o: "/".join(o.signature) if o.signature else "-",
    "events": _plan_events,
    "detail": lambda o: o.detail[:60] if o.detail else "-",
}


def _render_campaign(files: Files) -> str:
    outcomes: list[TrialOutcome] = files["campaign.csv"]
    lines = [
        _table(
            _TRIAL_COLUMNS,
            outcomes,
            "Chaos campaign: seeded random fault plans vs online oracles",
        )
    ]
    failures = [outcome for outcome in outcomes if not outcome.ok]
    for outcome in failures:
        trial = outcome.trial
        lines.append(
            f"FAIL trial {trial.index} "
            f"({trial.profile}/{trial.system}/{trial.topology}): "
            f"{'/'.join(outcome.signature or ())}"
        )
        minimized = outcome.minimized
        if minimized is not None:
            lines.append(
                f"     minimized {minimized.original_events} -> "
                f"{len(minimized.plan.events)} event(s) at "
                f"n_nodes={minimized.n_nodes} ({minimized.probes} probe(s))"
            )
            if minimized.exhausted:
                lines.append(
                    "     probe budget exhausted: the plan reproduces the "
                    "failure but is not verified 1-minimal"
                )
        if outcome.bundle_path is not None:
            lines.append(f"     repro bundle: {outcome.bundle_path}")
    lines.append(
        f"campaign: {len(outcomes) - len(failures)}/{len(outcomes)} trial(s) ok"
    )
    return "\n".join(lines)


CAMPAIGN = Experiment(
    name="campaign",
    help="randomized fault campaign: generated plans, online oracles, "
    "failing-seed minimization",
    quick=SMOKE_FIELDS,
    run=_run_campaign,
    render=_render_campaign,
    expectations=lambda files: [
        PaperExpectation(
            "every trial passed its online oracles (a red trial is a bug, "
            "not a golden)",
            all(outcome.ok for outcome in files["campaign.csv"]),
        ),
        PaperExpectation(
            "every minimization finished inside its probe budget",
            not any(
                outcome.minimized.exhausted
                for outcome in files["campaign.csv"]
                if outcome.minimized is not None
            ),
        ),
    ],
    flags=(
        Flag("--trials", "trials", help="chaos trials to run"),
        Flag(
            "--profile",
            "profile",
            str,
            "churn|splitbrain|rootstorm|wire|mixed|all (default: mixed)",
        ),
        *_WORKLOAD_FLAGS,
        Flag(
            "--no-minimize",
            "minimize",
            const=False,
            help="skip delta-debugging failing plans",
        ),
        Flag(
            "--bundle-dir",
            "bundle_dir",
            str,
            "write a repro bundle per failing trial under DIR",
        ),
    ),
    csv="campaign.csv",
    validate=lambda **fields: CampaignConfig(**fields).validate(),
    smoke_flag=True,
)
