"""Unit test: ``tools/mutation_table.py`` cannot rot silently.

The tool itself takes ~30 minutes, so a rewrite that breaks a mutant's
anchor would go unnoticed until someone runs it by hand.  Checking the
anchors takes milliseconds.
"""

import importlib.util
import os
import pathlib
import sys
import time

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "mutation_table", REPO_ROOT / "tools" / "mutation_table.py"
)
mutation_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_table)


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutation_table.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "mutant", mutation_table.MUTANTS, ids=lambda mutant: mutant.name
)
def test_anchor_occurs_exactly_once(mutant):
    # ``mutate`` exits with the rot message unless the anchor matches once.
    _target, original, mutated = mutation_table.mutate(REPO_ROOT, mutant)
    assert mutated != original


#: Forks one sleeping grandchild, prints its pid, then hangs.
_FORKS_A_SLEEPER = """
import subprocess, sys, time
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
print(sleeper.pid, flush=True)
time.sleep(60)
"""


def _alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _exits_within(pid, seconds):
    # A killed process closes its pipes before its state reads as exited.
    deadline = time.monotonic() + seconds
    while _alive(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def test_timed_out_tier_leaves_no_grandchild(tmp_path, monkeypatch):
    monkeypatch.setattr(mutation_table, "TIER_TIMEOUT_S", 1)
    log = tmp_path / "tier.log"
    command = [sys.executable, "-c", _FORKS_A_SLEEPER]
    assert mutation_table.tier_catches(command, tmp_path, dict(os.environ), log)
    output = log.read_text()
    assert "TIMEOUT after 1 s" in output
    grandchild = int(output.split()[0])
    assert _exits_within(grandchild, 10)
