"""``compare A.json B.json``: did B get worse than A, and did behaviour change?

One row per (end-to-end metric, workload).  A row is ``worse`` when B's
estimate is worse than A's by more than the metric's bound,
``unresolved`` when either side's round-to-round spread is wider than
the bound (unless every round of B beats every round of A), else ``ok``.
The spread is taken the way the estimate is: for a floor, how far the
floor moves when its best round is dropped; for a median, the distance
between the quartiles of the rounds as a share of their median.
Simulated time and the exact counts are compared for identity and listed
apart: a host-only change must leave all of them untouched.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Any


def _spread(metric: dict[str, Any]) -> float:
    """Round-to-round spread of one metric, matched to its estimator."""
    rounds = sorted(metric["rounds"])
    if len(rounds) < 2:
        return 0.0
    if metric["estimator"] == "min":
        return (rounds[1] - rounds[0]) / rounds[0]
    q1, _, q3 = statistics.quantiles(rounds, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(rounds)


def judge(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Verdict for one end-to-end metric of one workload."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(_spread(a), _spread(b))
    all_better = all(
        sign * (rb - ra) < 0 for ra in a["rounds"] for rb in b["rounds"]
    )
    if worsening > a["bound"]:
        verdict = "worse"
    elif spread > a["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "a": a["value"],
        "b": b["value"],
        "ratio": b["value"] / a["value"],
        "bound": a["bound"],
        "spread": spread,
        "verdict": verdict,
    }


def compare(doc_a: dict[str, Any], doc_b: dict[str, Any]) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows for every (metric, workload) and the behaviour differences."""
    rows: list[dict[str, Any]] = []
    changed: list[str] = []
    for name, work_a in doc_a["workloads"].items():
        work_b = doc_b["workloads"].get(name)
        if work_b is None:
            changed.append(f"{name}: missing from B")
            continue
        for metric, a in work_a["end_to_end"].items():
            row = judge(a, work_b["end_to_end"][metric])
            rows.append({"workload": name, "metric": metric, "unit": a["unit"], **row})
        mark_a, mark_b = work_a["fingerprint"], work_b["fingerprint"]
        sim_a, sim_b = mark_a["sim_time_us"], mark_b["sim_time_us"]
        rows.append(
            {
                "workload": name,
                "metric": "sim_time_us",
                "unit": "us",
                "a": sim_a,
                "b": sim_b,
                "ratio": sim_b / sim_a,
                "bound": 0.0,
                "spread": 0.0,
                "verdict": "ok" if sim_a == sim_b else "worse",
            }
        )
        if mark_a["state"] != mark_b["state"]:
            changed.append(f"{name}: state {mark_a['state'][:12]} -> {mark_b['state'][:12]}")
        for count in sorted(set(mark_a["counts"]) | set(mark_b["counts"])):
            before, after = mark_a["counts"].get(count), mark_b["counts"].get(count)
            if before != after:
                changed.append(f"{name}: {count} {before} -> {after}")
        for side, work in (("A", work_a), ("B", work_b)):
            if work["ops_failed"]:
                changed.append(f"{name}: {work['ops_failed']} failed passes in {side}")
    return rows, changed


def render(rows: list[dict[str, Any]], changed: list[str]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<12} {'A':>12} {'B':>12} "
        f"{'B/A (base A)':>13} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<18} {row['metric']:<12} {row['a']:>12.4f} "
            f"{row['b']:>12.4f} {row['ratio']:>13.4f} {row['bound']:>6.0%} "
            f"{row['spread']:>7.1%}  {row['verdict']}"
        )
    lines.append("")
    if changed:
        lines.append("simulated behaviour changed:")
        lines.extend(f"  {line}" for line in changed)
    else:
        lines.append("simulated behaviour unchanged: states, sim_time_us and exact counts identical")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.layered compare")
    parser.add_argument("a", help="results of the base run (--out of `run`)")
    parser.add_argument("b", help="results of the run under test")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        doc_a = json.load(handle)
    with open(args.b) as handle:
        doc_b = json.load(handle)
    rows, changed = compare(doc_a, doc_b)
    print(render(rows, changed))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
