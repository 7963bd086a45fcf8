"""Benchmarks: every registered experiment, run once and checked.

One parametrized test replaces the per-figure wrappers: it times the
experiment's ``run`` at the quick preset (``REPRO_FULL=1``: the paper's
scale, where the experiment declares one), prints and archives the same
tables the CLI prints, and asserts the declaration's expectations — the
very claims `repro <name>`, `repro reproduce`, the goldens gate and the
tier-1 suite check, so a benchmark can neither miss nor invent one.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.experiments.common import scale_preset
from repro.experiments.registry import EXPERIMENTS


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_bench_experiment(once, exp):
    files = once(exp.run, **scale_preset(exp.quick, exp.full))
    checks = exp.expectations(files)
    summary = "\n".join(str(check) for check in checks)
    text = exp.render(files)
    if exp.chart is not None:
        text += "\n\n" + exp.chart(files)
    csv_rows = next(
        (rows for name, rows in files.items() if name.endswith(".csv")), None
    )
    emit(exp.name, f"{text}\n\n{summary}", rows=csv_rows)
    assert all(check.holds for check in checks), summary
