"""The parent side: spawn rounds, collect samples, estimate.

A *round* is one fresh worker process for one workload: spawn → warm-up
pass (``setup_s`` ends here) → timed passes for the round's share of
the measuring time → optionally one traced pass.  Short passes, many of
them, spread over rounds, with the floor as the estimator: on a shared
host the noise is one-sided, and the minimum of many short passes
repeats far better than the median of a few long ones (README, "Noise").
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from .workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fresh workers per workload in one run.
ROUNDS = 3
#: Library defaults are what is measured: these never reach a worker.
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_SHARDS", "REPRO_SHARD_BACKEND", "REPRO_FULL")

#: How the rounds of a run become one number.  Timings take the floor:
#: the host's noise only ever adds time.  Set-up and memory have one
#: reading per round and take the median.
ESTIMATORS = {
    "setup_s": statistics.median,
    "wall_s": min,
    "cpu_s": min,
    "peak_rss_mb": statistics.median,
}

FIDELITY_NOTE = (
    "fidelity: the model is validated against the paper only qualitatively "
    "(EXPERIMENTS.md: GWC peak 60.9 vs paper 84.1 @ 129 CPUs; entry peak "
    "22.8 vs 22.5 @ 33), so sim_time_us compares commits, not us to the paper"
)


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # ``benchmarks/`` on the path makes this package importable as
    # ``layered`` without importing ``benchmarks/__init__`` (it pulls in
    # pytest, which would sit in every worker's setup time and RSS).
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE.parent)])
    env["PYTHONHASHSEED"] = "0"
    # A run leaves the tree as it found it (no ``__pycache__``).
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass
class Round:
    """Everything one worker reported."""

    spawn_t: float
    setup_s: float = 0.0
    end_t: float = 0.0
    rss_mb: float = 0.0
    passes: list[dict[str, Any]] = field(default_factory=list)
    traced: dict[str, Any] | None = None
    variants: list[dict[str, Any]] = field(default_factory=list)
    reference_failures: list[str] = field(default_factory=list)

    def timed(self, key: str) -> list[float]:
        return [p[key] for p in self.passes if p["kind"] == "pass"]


def run_round(
    name: str,
    seed: int,
    quick: bool,
    budget: float,
    trace: bool = False,
    reference: bool = False,
) -> Round:
    """Spawn one worker, read its events, wait for it to end."""
    command = [
        sys.executable, "-m", "layered.worker",
        "--workload", name,
        "--seed", str(seed),
        "--quick", str(int(quick)),
        "--budget", repr(budget),
        "--trace", str(int(trace)),
        "--reference", str(int(reference)),
    ]  # fmt: skip
    round_ = Round(spawn_t=time.perf_counter())
    proc = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    assert proc.stdout is not None
    try:
        for line in proc.stdout:
            received = time.perf_counter()
            event = json.loads(line)
            kind = event.pop("event")
            if kind == "ready":
                round_.setup_s = received - round_.spawn_t
            elif kind == "pass":
                round_.passes.append(event)
            elif kind == "traced":
                round_.passes.append(event)
                round_.traced = event
            elif kind == "variant":
                round_.variants.append(event)
            elif kind == "reference":
                round_.reference_failures = event["failures"]
            elif kind == "done":
                round_.rss_mb = (
                    max(event["rss_self_kib"], event["rss_children_kib"]) / 1024.0
                )
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
    round_.end_t = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"worker for {name} exited with code {code}")
    return round_


class WorkloadRun:
    """The rounds of one workload and what they add up to."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rounds: list[Round] = []

    @property
    def passes(self) -> list[dict[str, Any]]:
        return [p for r in self.rounds for p in r.passes]

    def failed_passes(self) -> list[str]:
        """One line per pass whose check failed or whose state differs."""
        first = self.passes[0]["fingerprint"]
        lines = []
        for index, entry in enumerate(self.passes):
            reasons = list(entry["failures"])
            if entry["fingerprint"] != first:
                reasons.append("state differs from the first pass")
            if reasons:
                lines.append(f"{self.name} pass {index}: " + "; ".join(reasons))
        for round_ in self.rounds:
            for reason in round_.reference_failures:
                lines.append(f"{self.name} reference: {reason}")
        return lines

    def per_round(self, metric: str) -> list[float]:
        """One estimate per round: the floor of its passes, or its one reading."""
        if metric in ("wall_s", "cpu_s"):
            return [min(r.timed(metric)) for r in self.rounds]
        if metric == "setup_s":
            return [r.setup_s for r in self.rounds]
        return [r.rss_mb for r in self.rounds if r.traced is None]

    def samples(self, metric: str) -> list[float]:
        """Every reading behind a metric: all timed passes, or one per round."""
        if metric in ("wall_s", "cpu_s"):
            return [value for r in self.rounds for value in r.timed(metric)]
        return self.per_round(metric)

    def end_to_end(self) -> dict[str, float]:
        return {
            metric: estimate(self.per_round(metric))
            for metric, estimate in ESTIMATORS.items()
        }

    def fingerprint(self) -> dict[str, Any]:
        first = self.passes[0]
        traced = next((r.traced for r in self.rounds if r.traced), None)
        return {
            "state": first["fingerprint"],
            "sim_time_us": first["sim_time_us"],
            "counts": dict(sorted(traced["counts"].items())) if traced else {},
        }

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the traced round, and notes on gaps."""
        round_ = next(r for r in self.rounds if r.traced)
        traced = round_.traced
        assert traced is not None
        wall_s = min(self.samples("wall_s"))
        metrics: dict[str, float] = {}
        notes: list[str] = []
        for layer, row in traced["layers"].items():
            for key, value in row.items():
                metrics[f"{layer}.{key}"] = value
        counts = traced["counts"]
        metrics.update(counts)
        executed = counts["sim.shards.executed"]
        metrics["sim.shards.rollback_ratio"] = (
            counts["sim.shards.replayed"] / executed if executed else 0.0
        )
        for name in ("serial", "conservative", "process"):
            metrics[f"sim.shards.{name}_wall_s"] = 0.0
        for variant in round_.variants:
            if "skipped" in variant:
                notes.append(f"{self.name}: variant {variant['name']} skipped: {variant['skipped']}")
            else:
                metrics[f"sim.shards.{variant['name']}_wall_s"] = variant["wall_s"]
        serial = metrics["sim.shards.serial_wall_s"]
        metrics["sim.shards.overhead_x"] = wall_s / serial if serial else 0.0
        metrics["host.calls_total"] = traced["calls_total"]
        events = counts["sim.kernel.events"]
        metrics["host.us_per_event"] = wall_s / events * 1e6 if events else 0.0
        metrics["host.trace_overhead_x"] = traced["wall_s"] / wall_s
        metrics["sim.time_us"] = traced["sim_time_us"]
        return metrics, notes

    def spans(self, first_id: int, parent: int) -> list[dict[str, Any]]:
        """``workload > round > warmup|pass|traced_pass [> point]`` spans."""
        spans: list[dict[str, Any]] = []

        def add(name: str, start: float, end: float, cause: int) -> int:
            spans.append(
                {
                    "id": first_id + len(spans),
                    "parent": cause,
                    "lane": self.name,
                    "name": name,
                    "start": start,
                    "end": end,
                }
            )
            return spans[-1]["id"]

        top = add(self.name, self.rounds[0].spawn_t, self.rounds[-1].end_t, parent)
        for index, round_ in enumerate(self.rounds):
            rid = add(f"round {index}", round_.spawn_t, round_.end_t, top)
            for entry in round_.passes:
                pid = add(entry["kind"], entry["start"], entry["end"], rid)
                for point in entry.get("points", []):
                    add(point["label"], point["start"], point["end"], pid)
        return spans


def host_fingerprint() -> dict[str, Any]:
    model = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def measure_one(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> WorkloadRun:
    """What ``BENCHMARK.json``'s command does for one workload.

    With tracing off: ``ROUNDS`` rounds sharing ``seconds`` of timed
    passes.  With tracing on: one round with one share of the timed
    passes (the reference for the overhead figures) plus the traced pass.
    """
    run = WorkloadRun(name)
    budget = seconds / ROUNDS
    if trace:
        run.rounds.append(run_round(name, seed, quick, budget, trace=True))
    else:
        for index in range(ROUNDS):
            run.rounds.append(
                run_round(name, seed, quick, budget, reference=index == 0)
            )
    return run


def measure_all(seed: int, seconds: float, quick: bool) -> dict[str, WorkloadRun]:
    """Round-major over the six workloads, then one traced round each."""
    runs = {name: WorkloadRun(name) for name in WORKLOADS}
    budget = seconds / ROUNDS
    for index in range(ROUNDS):
        for name, run in runs.items():
            print(f"[layered] round {index} {name}", file=sys.stderr)
            run.rounds.append(
                run_round(name, seed, quick, budget, reference=index == 0)
            )
    for name, run in runs.items():
        print(f"[layered] traced {name}", file=sys.stderr)
        run.rounds.append(run_round(name, seed, quick, budget, trace=True))
    return runs
