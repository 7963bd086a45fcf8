"""Smoke tests: the example scripts must keep running green.

Each example is executed in-process (``runpy``) with stdout captured;
their internal asserts are the real test.  The two figure sweeps
(`task_management.py`, `pipeline_speedup.py`) are skipped here for
suite speed; `make examples` (a CI step) runs every script, them too.
"""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"

FAST_EXAMPLES = (
    "quickstart.py",
    "paper_figure3.py",
    "single_writer.py",
    "rollback_scenario.py",
    "lock_protocols.py",
    "stencil_app.py",
    "lossy_network.py",
    "locking_comparison.py",
)


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, capsys, monkeypatch):
    path = EXAMPLES / script
    assert path.exists(), path
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"
    assert "Traceback" not in out


def test_every_example_is_covered_somewhere():
    """New examples must be added here or to the two run only by
    `make examples`."""
    known = set(FAST_EXAMPLES) | {"task_management.py", "pipeline_speedup.py"}
    actual = {p.name for p in EXAMPLES.glob("*.py")}
    assert actual <= known, actual - known
    assert len(actual) >= 10
