"""Self-test of the layered benchmark on the ``--quick`` size set.

Run with ``PYTHONPATH=src python -m pytest benchmarks/layered/test_layered.py``
(about half a minute; not part of the tier-1 ``tests/`` suite).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from . import compare, layers
from .harness import HERE, ROOT, load_spec
from .workloads import WORKLOADS

SPEC = load_spec()


def _contract_run(name: str, trace: int) -> dict:
    """The command in ``BENCHMARK.json``, on quick sizes; its result line."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", "3", "--seconds", "0.3",
            "--trace", str(trace), "--quick",
        ],  # fmt: skip
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_twice(request) -> tuple[dict, dict]:
    return _contract_run(request.param, 1), _contract_run(request.param, 1)


def test_spec_names_the_six_workloads_and_their_reasons():
    assert SPEC["paths"] == ["benchmarks/layered"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_every_source_module_has_exactly_one_layer():
    modules = layers.source_modules(ROOT / "src" / "repro")
    assert modules
    for rel in modules:
        assert len(layers.matching_layers(rel)) == 1, rel
    spec_layers = {
        m["name"][: -len(".self_share")]
        for m in SPEC["per_layer"]
        if m["name"].endswith(".self_share")
    }
    assert spec_layers == set(layers.LAYERS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_present_with_units(name):
    result = _contract_run(name, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_per_layer_metrics_present_with_units(traced_twice):
    result, _ = traced_twice
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_layer_shares_sum_to_one_and_other_is_small(traced_twice):
    metrics = traced_twice[0]["metrics"]
    shares = {
        layer: metrics[f"{layer}.self_share"]["value"] for layer in layers.LAYERS
    }
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert shares[layers.OTHER] <= 0.05


def test_two_traced_runs_give_identical_counts(traced_twice):
    first, second = traced_twice
    for metric in SPEC["per_layer"]:
        if metric["unit"] in ("count", "sim_us") or metric["name"].endswith("rollback_ratio"):
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name


def _metric(value: float, rounds: list[float], bound: float = 0.10) -> dict:
    return {
        "value": value,
        "rounds": rounds,
        "bound": bound,
        "better": "lower",
        "estimator": "min",
    }


def test_compare_verdicts():
    base = _metric(1.00, [1.00, 1.01, 1.02])
    assert compare.judge(base, _metric(1.05, [1.05, 1.06, 1.07]))["verdict"] == "ok"
    assert compare.judge(base, _metric(1.20, [1.20, 1.21, 1.22]))["verdict"] == "worse"
    noisy = _metric(1.00, [1.00, 1.20, 1.30])
    assert compare.judge(noisy, _metric(1.02, [1.02, 1.10, 1.20]))["verdict"] == "unresolved"
    assert compare.judge(noisy, _metric(0.80, [0.80, 0.85, 0.90]))["verdict"] == "ok"
