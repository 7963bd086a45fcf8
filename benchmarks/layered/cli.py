"""Command line: the single-workload contract, ``run`` and ``compare``."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any

from . import compare
from .harness import (
    ESTIMATORS,
    FIDELITY_NOTE,
    ROOT,
    ROUNDS,
    WorkloadRun,
    host_fingerprint,
    load_spec,
    measure_all,
    measure_one,
)
from .workloads import WORKLOADS


def _require_source() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.layered: no simulator source under {ROOT / 'src'}")


def _with_units(values: dict[str, float], specs: list[dict[str, Any]]) -> dict[str, Any]:
    """The spec's metrics, in its order, each with its unit; none may be missing."""
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def cmd_one(argv: list[str]) -> int:
    """One workload, one JSON line: the contract in ``BENCHMARK.json``.

    A failed check is reported in the line (``correct``, ``failed``), not
    by the exit code: a code other than 0 means there is no result.
    """
    parser = argparse.ArgumentParser(prog="benchmarks/layered/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    _require_source()
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    run = measure_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    failed = run.failed_passes()
    for line in failed:
        print(f"[layered] FAILED {line}", file=sys.stderr)
    if args.trace:
        values, notes = run.per_layer()
        for note in notes:
            print(f"[layered] {note}", file=sys.stderr)
        metrics = _with_units(values, spec["per_layer"])
    else:
        metrics = _with_units(run.end_to_end(), spec["end_to_end"])
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(run.passes),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def document(
    runs: dict[str, WorkloadRun], spec: dict[str, Any], seed: int, seconds: float, quick: bool
) -> dict[str, Any]:
    """Everything a run measured: estimates, every sample, fingerprints, spans."""
    workloads: dict[str, Any] = {}
    spans = [
        {
            "id": 0,
            "parent": None,
            "name": "run",
            "start": min(r.rounds[0].spawn_t for r in runs.values()),
            "end": max(r.rounds[-1].end_t for r in runs.values()),
        }
    ]
    for name, run in runs.items():
        estimates = run.end_to_end()
        end_to_end = {
            metric["name"]: {
                "value": estimates[metric["name"]],
                "unit": metric["unit"],
                "bound": metric["bound"],
                "better": metric["better"],
                "estimator": ESTIMATORS[metric["name"]].__name__,
                "samples": run.samples(metric["name"]),
                "rounds": run.per_round(metric["name"]),
            }
            for metric in spec["end_to_end"]
        }
        per_layer, notes = run.per_layer()
        failed = run.failed_passes()
        workloads[name] = {
            "ops_attempted": len(run.passes),
            "ops_failed": len(failed),
            "failures": failed,
            "end_to_end": end_to_end,
            "fingerprint": run.fingerprint(),
            "per_layer": _with_units(per_layer, spec["per_layer"]),
            "notes": notes,
        }
        spans.extend(run.spans(first_id=len(spans), parent=0))
    return {
        "schema": 1,
        "host": host_fingerprint(),
        "seed": seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "quick": quick,
        "workloads": workloads,
        "spans": spans,
    }


def render(doc: dict[str, Any]) -> str:
    """Every metric by name with its unit, one workload after another."""
    lines = []
    host = doc["host"]
    lines.append(
        f"host: {host['cpu_model']} x{host['nproc']}, Python {host['python']}, "
        f"commit {host['git_commit']}; seed {doc['seed']}, "
        f"{doc['seconds']} s x {doc['rounds']} rounds"
        + (" (quick sizes)" if doc["quick"] else "")
    )
    for name, work in doc["workloads"].items():
        lines.append("")
        lines.append(
            f"== {name}: ops_attempted={work['ops_attempted']} "
            f"ops_failed={work['ops_failed']}"
        )
        for metric, row in work["end_to_end"].items():
            q1, q2, q3 = statistics.quantiles(row["samples"], n=4)
            lines.append(
                f"  {metric:<12} {row['value']:>12.4f} {row['unit']:<4} "
                f"(median {q2:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(row['samples'])}; "
                f"bound {row['bound']:.0%})"
            )
        mark = work["fingerprint"]
        lines.append(
            f"  {'sim_time_us':<12} {mark['sim_time_us']:>12.4f} us   "
            f"(simulated; repeats exactly; bound 0)"
        )
        lines.append(f"  state {mark['state']}")
        lines.append(
            "  counts " + " ".join(f"{k}={v}" for k, v in mark["counts"].items())
        )
        lines.append("  per layer (traced pass):")
        for metric, row in work["per_layer"].items():
            value = row["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"    {metric:<34} {shown:>14} {row['unit']}")
        lines.extend(f"  note: {note}" for note in work["notes"])
        lines.extend(f"  FAILED {line}" for line in work["failures"])
    lines.append("")
    lines.append(FIDELITY_NOTE)
    return "\n".join(lines)


def chrome_trace(doc: dict[str, Any]) -> dict[str, Any]:
    """The harness-side spans as Chrome trace events, plus the layer table."""
    origin = doc["spans"][0]["start"]
    # Rounds of different workloads interleave, so each workload gets a
    # track of its own (the run span keeps track 0).
    lanes = {name: index + 1 for index, name in enumerate(doc["workloads"])}
    events = [
        {
            "name": span["name"],
            "ph": "X",
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": 1,
            "tid": lanes.get(span.get("lane"), 0),
            "args": {"id": span["id"], "parent": span["parent"]},
        }
        for span in doc["spans"]
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "layers": {
                name: work["per_layer"] for name, work in doc["workloads"].items()
            }
        },
    }


def cmd_run(argv: list[str]) -> int:
    """All six workloads; prints every metric; exit 1 on a failed check."""
    parser = argparse.ArgumentParser(prog="python -m benchmarks.layered run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true", help="self-test sizes")
    parser.add_argument("--out", help="write the results as JSON here")
    parser.add_argument("--trace-out", help="write Chrome trace-event JSON here")
    args = parser.parse_args(argv)
    _require_source()
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    runs = measure_all(args.seed, seconds, args.quick)
    doc = document(runs, spec, args.seed, seconds, args.quick)
    print(render(doc))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(chrome_trace(doc), handle)
            handle.write("\n")
    return 1 if any(work["ops_failed"] for work in doc["workloads"].values()) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["run"]:
        return cmd_run(argv[1:])
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    return cmd_one(argv)
