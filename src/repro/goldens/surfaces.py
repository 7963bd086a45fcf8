"""The artifact-producing surfaces covered by goldens.

A *surface* is one reproducible artifact set, and every surface is
derived from the experiment registry: it renders what
``experiment.run(**experiment.quick)`` returns, in memory, as the
``{file name: text}`` its golden directory holds.  An experiment that
declares a paper scale gets a second surface, ``<name>@full``, that
does the same with ``experiment.full`` — the run ``repro <name>
--full`` prints — so every number compared with the paper is pinned.
The presets pin every scale explicitly, so two runs on any two hosts
produce byte-identical files, and a run whose expectations fail is
refused rather than snapshotted.

Everything recorded here is simulated-time deterministic; wall-clock
measurements live in the benchmark (``BENCHMARK.json``), never in a
golden.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments.common import Experiment, artefact_text
from repro.experiments.registry import EXPERIMENTS

#: Repository root (src layout: src/repro/goldens/surfaces.py -> root).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


@dataclass(frozen=True, slots=True)
class Surface:
    """One golden-covered artifact surface."""

    name: str
    generate: Callable[[], dict[str, str]]


def _experiment_surface(experiment: Experiment, full: bool = False) -> Surface:
    """The surface that snapshots ``experiment`` at its quick preset or,
    with ``full``, the ``<name>@full`` one at its paper-scale preset."""
    name = f"{experiment.name}@full" if full else experiment.name
    params = experiment.full if full else experiment.quick

    def generate() -> dict[str, str]:
        files = experiment.run(**params)
        failed = [
            check.claim
            for check in experiment.expectations(files)
            if not check.holds
        ]
        if failed:
            raise ExperimentError(
                f"{name}: refusing to snapshot a run whose "
                f"expectation(s) failed: {'; '.join(failed)}"
            )
        return {
            file: artefact_text(file, content) for file, content in files.items()
        }

    return Surface(name, generate)


#: Every artifact-producing surface, in verification order: the quick
#: ones (fast first), then the paper-scale ones.
SURFACES: tuple[Surface, ...] = tuple(map(_experiment_surface, EXPERIMENTS)) + tuple(
    _experiment_surface(exp, full=True)
    for exp in EXPERIMENTS
    if exp.full is not None
)

SURFACES_BY_NAME: dict[str, Surface] = {s.name: s for s in SURFACES}


def surface_names() -> tuple[str, ...]:
    return tuple(s.name for s in SURFACES)


def get_surfaces(only: tuple[str, ...] | None = None) -> tuple[Surface, ...]:
    """Resolve a ``--only`` selection, raising on unknown names."""
    if only is None:
        return SURFACES
    unknown = [name for name in only if name not in SURFACES_BY_NAME]
    if unknown:
        raise ExperimentError(
            f"unknown golden surface(s) {unknown}; known: {list(surface_names())}"
        )
    return tuple(SURFACES_BY_NAME[name] for name in only)
