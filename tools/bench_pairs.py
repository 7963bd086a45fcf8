#!/usr/bin/env python3
"""Alternating parent/change pairs of the BENCHMARK.json contract command.

``python tools/bench_pairs.py --base REV --workload NAME... [--pairs 10]
[--exact]`` exports ``REV`` (``git archive``) and the working tree
(every file git tracks or would track) once, into two fresh temporary
directories, so neither side starts with a ``__pycache__`` the other
lacks, then runs the contract command (``BENCHMARK.json``: ``command`` +
``--workload W --seed N --seconds run_seconds --trace 0``) once per side
per workload per pair — odd pairs parent first, even pairs change first,
seeds ``0..N-1``, the workloads (several names, or ``all``) interleaved
inside each pair — and prints, per workload and end-to-end metric, each
side's median and quartiles and the pairs won by the change, tied, and
won by the parent.  A run with a failed operation on either side
aborts: a gain does not count then.

``--exact`` first makes one ``--trace 1`` pass per side per workload and
prints, for every metric the contract gives a repeatable unit (counts
and simulated time: ``sim.time_us``, ``sim.kernel.events``,
``host.calls_total``, the protocol counts, each layer's ``calls``),
whether the change reads equal, lower or higher than the parent — the
"bit-identical" and "must not move" lines of a claim.

This is the measurement a claimed gain needs (>= 9 of 10 pairs won, the
medians further apart than the parent's own quartile distance); it takes
minutes, so it is a developer tool (``make bench-pairs``), not a CI
step.  Set ``TMPDIR`` to choose where the exports go.  See
docs/REPRODUCING.md section 6.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
#: Units whose values repeat exactly from run to run.
EXACT_UNITS = ("count", "sim_us")
#: Seed of the ``--exact`` traced pass.
EXACT_SEED = 1


def export_revision(rev: str, into: pathlib.Path) -> None:
    """The committed files of ``rev``, as the benchmark driver sees them."""
    into.mkdir()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=REPO, check=True,
        capture_output=True,
    )  # fmt: skip
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def export_working_tree(into: pathlib.Path) -> None:
    """Every tracked or not-ignored file of the working tree, as it is now."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True, text=True,
    )  # fmt: skip
    for name in filter(None, listed.stdout.split("\0")):
        source = REPO / name
        if source.is_file():  # a tracked file deleted in the working tree is gone
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def contract_run(
    cwd: pathlib.Path, contract: dict, workload: str, seed: int, trace: int = 0
) -> dict[str, float]:
    """One contract run in ``cwd``; returns {metric: value} as printed."""
    command = [
        *contract["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]),
        "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} (in {cwd}) exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        raise SystemExit(
            f"{workload} seed {seed} in {cwd}: {result['failed']} of "
            f"{result['attempted']} operations failed"
        )
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def exact_report(
    contract: dict, workload: str, parent: dict[str, float], change: dict[str, float]
) -> str:
    """Equal / lower / higher for every exactly repeatable metric that
    is non-zero on either side of one traced pass."""
    lines = [f"{workload}: --trace 1, seed {EXACT_SEED}, exact metrics"]
    moved = 0
    for metric in contract["per_layer"]:
        name = metric["name"]
        if metric["unit"] not in EXACT_UNITS:
            continue
        before, after = parent[name], change[name]
        if before == after == 0:
            continue
        if before == after:
            lines.append(f"  equal   {name:<32} {after:,.12g}")
            continue
        moved += 1
        verdict = "lower" if after < before else "higher"
        ratio = f" (x{after / before:.3f})" if before else ""
        lines.append(
            f"  {verdict:<7} {name:<32} {before:,.12g} -> {after:,.12g}{ratio}"
        )
    lines.append(f"  {moved} exact metric(s) differ")
    return "\n".join(lines)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(contract: dict, workload: str, runs: dict[str, list[dict]]) -> str:
    pairs = len(runs["parent"])
    lines = [
        f"{workload}: {pairs} alternating pairs, --seconds "
        f"{contract['run_seconds']}, seeds 0..{pairs - 1}",
        f"{'metric':<12} {'side':<7} {'q1':>9} {'median':>9} {'q3':>9}   "
        "change wins / ties / parent wins",
    ]
    for metric in contract["end_to_end"]:
        name = metric["name"]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        wins = sum(sign * c > sign * p for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        lines.append(f"{name:<12} parent  {p_q1:9.3f} {p_med:9.3f} {p_q3:9.3f}")
        lines.append(
            f"{'':<12} change  {c_q1:9.3f} {c_med:9.3f} {c_q3:9.3f}   "
            f"{wins} / {ties} / {pairs - wins - ties}   "
            f"median x{c_med / p_med:.3f} of parent ({metric['unit']}, "
            f"{metric['better']} is better, bound {metric['bound']:.0%}, "
            f"parent q3-q1 {p_q3 - p_q1:.3f})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument(
        "--workload", required=True, nargs="+", metavar="NAME",
        help="one or more workload names, or 'all'",
    )  # fmt: skip
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--exact", action="store_true",
        help="first compare the repeatable counts of one --trace 1 pass per side",
    )  # fmt: skip
    args = parser.parse_args(argv)

    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in contract["workloads"]]
    workloads = names if args.workload == ["all"] else args.workload
    unknown = [name for name in workloads if name not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; 'all' or some of {names}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    runs: dict[str, dict[str, list[dict]]] = {
        workload: {"parent": [], "change": []} for workload in workloads
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {
            "parent": pathlib.Path(tmp) / "parent",
            "change": pathlib.Path(tmp) / "change",
        }
        export_revision(args.base, sides["parent"])
        export_working_tree(sides["change"])
        if args.exact:
            for workload in workloads:
                traced = {
                    side: contract_run(cwd, contract, workload, EXACT_SEED, trace=1)
                    for side, cwd in sides.items()
                }
                print(exact_report(contract, workload, **traced), flush=True)
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                latest = runs[workload]
                for side in order:
                    latest[side].append(
                        contract_run(sides[side], contract, workload, pair - 1)
                    )
                print(
                    f"pair {pair}/{args.pairs} ({order[0]} first) {workload}: "
                    + "  ".join(
                        f"{name} {latest['parent'][-1][name]:.3f} -> "
                        f"{latest['change'][-1][name]:.3f}"
                        for name in latest["parent"][-1]
                    ),
                    file=sys.stderr,
                    flush=True,
                )
    for workload in workloads:
        print(report(contract, workload, runs[workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
