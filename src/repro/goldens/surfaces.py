"""The artifact-producing surfaces covered by goldens.

A *surface* is one reproducible artifact set, and every surface is
derived from the experiment registry: it renders what
``experiment.run(**experiment.quick)`` returns, in memory, as the
``{file name: text}`` its golden directory holds.  The presets pin
every scale explicitly — never environment-dependent defaults
(``REPRO_FULL``) — so two runs on any two hosts produce byte-identical
files, and a run whose expectations fail is refused rather than
snapshotted.

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


def _experiment_surface(experiment: Experiment) -> Surface:
    """The surface that snapshots ``experiment`` at its quick preset."""

    def generate() -> dict[str, str]:
        files = experiment.run(**experiment.quick)
        failed = [
            check.claim
            for check in experiment.expectations(files)
            if not check.holds
        ]
        if failed:
            raise ExperimentError(
                f"{experiment.name}: refusing to snapshot a run whose "
                f"expectation(s) failed: {'; '.join(failed)}"
            )
        return {
            name: artefact_text(name, content) for name, content in files.items()
        }

    return Surface(experiment.name, generate)


#: Every artifact-producing surface, in verification order (fast first).
SURFACES: tuple[Surface, ...] = tuple(map(_experiment_surface, EXPERIMENTS))

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
