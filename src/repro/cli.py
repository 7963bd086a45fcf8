"""Command-line interface: regenerate any paper artefact from a shell.

``python -m repro --help`` lists the subcommands and ``python -m repro
<command> --help`` their flags.  One subcommand per experiment in
:mod:`repro.experiments.registry`, built from its declaration, plus
``reproduce`` (several experiments and a pass/fail digest), ``systems``
and the goldens gate (``verify-goldens`` / ``update-goldens``).

Exit codes are uniform across commands: 0 = clean, 1 = a check failed
(expectation miss, chaos stall/invariant, golden drift), 2 = usage
error (unknown scenario/system/surface/experiment, missing
kill-switch, a non-integer ``REPRO_JOBS``).

Every experiment command prints the same rows/series the paper's figure
reports, followed by the qualitative expectation checklist.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Mapping, Sequence

from repro.consistency.base import system_names
from repro.errors import ExperimentError, FaultError
from repro.experiments.common import JOBS, Experiment, name_tuple
from repro.experiments.registry import BY_NAME, EXPERIMENTS, PAPER_ARTEFACTS
from repro.experiments.runner import default_jobs


def _add_experiment_parser(sub: Any, exp: Experiment) -> None:
    """The subcommand an experiment's declaration describes.

    Flags default to "absent" (``argparse.SUPPRESS``): only a flag the
    user typed overrides the preset.
    """
    parser = sub.add_parser(exp.name, help=exp.help)
    if exp.full is not None:
        parser.add_argument("--full", action="store_true", help="paper scale")
    if exp.smoke_flag:
        parser.add_argument(
            "--smoke",
            action="store_true",
            help=f"the fixed deterministic preset (the {exp.name} golden surface)",
        )
    for flag in exp.flags:
        kind = (
            {"type": flag.parse}
            if flag.const is None
            else {"action": "store_const", "const": flag.const}
        )
        parser.add_argument(
            flag.spelling, default=argparse.SUPPRESS, help=flag.help, **kind
        )
    if exp.chart is not None:
        parser.add_argument(
            "--chart", action="store_true", help="draw an ASCII chart"
        )
    if exp.csv is not None:
        parser.add_argument("--csv", type=str, default="", metavar="FILE")
    parser.set_defaults(fn=_cmd_experiment, experiment=exp)


def _run_and_report(
    exp: Experiment, params: Mapping[str, Any], chart: bool, csv: str = ""
) -> int:
    """Run, print tables and checklist, export; the number of failed claims."""
    files = exp.run(**params)
    print(exp.render(files))
    if chart and exp.chart is not None:
        print()
        print(exp.chart(files))
    print()
    checks = exp.expectations(files)
    for check in checks:
        print(check)
    if csv:
        from repro.metrics.export import write_csv

        print(f"wrote {write_csv(csv, files[exp.csv])}")
    return sum(not check.holds for check in checks)


def _cmd_experiment(args: argparse.Namespace) -> int:
    """The one handler: preset + flag overrides -> run -> report -> 0/1."""
    exp: Experiment = args.experiment
    if exp.smoke_flag and not args.smoke:
        params: dict[str, Any] = {}
    else:
        params = dict(exp.full if getattr(args, "full", False) else exp.quick)
    for flag in exp.flags:
        dest = flag.spelling.lstrip("-").replace("-", "_")
        if hasattr(args, dest):
            params[flag.param] = getattr(args, dest)
    if exp.validate is not None:
        try:
            exp.validate(**params)
        except FaultError as exc:
            print(f"{exp.name}: {exc}", file=sys.stderr)
            return 2
    failed = _run_and_report(
        exp, params, getattr(args, "chart", False), getattr(args, "csv", "")
    )
    return 1 if failed else 0


def _cmd_systems(args: argparse.Namespace) -> int:
    for name in system_names():
        print(name)
    return 0


def _cmd_goldens(args: argparse.Namespace) -> int:
    """The drift gate and its kill-switch-protected rewrite.

    Exit codes: 0 clean, 1 drift (with a per-file / per-field report),
    2 usage (unknown surface, ``update-goldens`` without
    ``REPRO_REGEN_GOLDENS=1``).
    """
    from repro.goldens import verify

    action = (
        verify.update_goldens
        if args.command == "update-goldens"
        else verify.verify_goldens
    )
    return action(
        goldens_dir=args.dir or None, only=name_tuple(args.only) or None
    )


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the named experiments in one go and print a digest."""
    names = args.names or PAPER_ARTEFACTS
    unknown = [name for name in names if name not in BY_NAME]
    if unknown:
        print(
            f"reproduce: unknown experiment(s) {', '.join(unknown)}; known: "
            f"{', '.join(BY_NAME)}",
            file=sys.stderr,
        )
        return 2
    banner = "=" * 68
    failed: dict[str, int] = {}
    for name in names:
        exp = BY_NAME[name]
        print(f"{banner}\n{exp.help.upper()}\n{banner}")
        params = dict(exp.full if args.full and exp.full is not None else exp.quick)
        if JOBS in exp.flags and args.jobs is not None:
            params[JOBS.param] = args.jobs
        misses = _run_and_report(exp, params, chart=True)
        if misses:
            failed[name] = misses
        print()
    if failed:
        print(
            f"REPRODUCTION DIGEST: {sum(failed.values())} expectation(s) "
            f"FAILED in: {', '.join(failed)}"
        )
        return 1
    print("REPRODUCTION DIGEST: every paper expectation held")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Optimistic Synchronization in Distributed Shared "
            "Memory' (Hermannsson & Wittie, ICDCS 1994)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in EXPERIMENTS:
        _add_experiment_parser(sub, exp)

    ps = sub.add_parser("systems", help="list consistency systems")
    ps.set_defaults(fn=_cmd_systems)

    for name, help_text in (
        (
            "verify-goldens",
            "drift gate: regenerate artifacts, diff vs committed goldens "
            "(0 clean, 1 drift, 2 usage)",
        ),
        (
            "update-goldens",
            "rewrite committed goldens (requires REPRO_REGEN_GOLDENS=1)",
        ),
    ):
        pg = sub.add_parser(name, help=help_text)
        pg.add_argument(
            "--only",
            type=str,
            default="",
            metavar="A,B",
            help="comma-separated surface names (default: all)",
        )
        pg.add_argument(
            "--dir",
            type=str,
            default="",
            metavar="DIR",
            help="goldens tree (default: <repo>/goldens)",
        )
        pg.set_defaults(fn=_cmd_goldens)

    pr = sub.add_parser(
        "reproduce",
        help="regenerate experiments (default: the paper's artefacts) and "
        "print a pass/fail digest",
    )
    pr.add_argument(
        "names", nargs="*", metavar="NAME", help="experiments to run, in order"
    )
    pr.add_argument("--full", action="store_true", help="paper scale")
    pr.add_argument("--jobs", type=int, default=None, metavar="N", help=JOBS.help)
    pr.set_defaults(fn=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        default_jobs()
    except ExperimentError as exc:  # a bad REPRO_JOBS is a usage error
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
