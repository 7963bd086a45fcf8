"""Unit test: ``tools/mutation_table.py`` cannot rot silently.

The tool itself takes ~30 minutes, so a rewrite that breaks a mutant's
anchor would go unnoticed until someone runs it by hand.  Checking the
anchors takes milliseconds.
"""

import importlib.util
import pathlib

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
