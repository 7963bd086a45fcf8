"""The artifact-producing surfaces covered by goldens.

A *surface* is one reproducible artifact set.  All but one are derived
from the experiment registry: the surface writes what
``experiment.run(**experiment.quick)`` returns through a crash-safe
:class:`RunWriter`.  The presets pin every scale explicitly — never
environment-dependent defaults (``REPRO_FULL``) — so two runs on any
two hosts produce byte-identical files, and a run whose expectations
fail is refused rather than snapshotted.

Everything recorded here is simulated-time deterministic.  The one
wall-clock-contaminated artifact, ``BENCH_kernel.json``, is the one
hand-written surface: it projects a file, not a run, and participates
through its scrubbed semantic projection — the host fingerprint and
timings stay in the real snapshot but never reach a golden.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments.common import Experiment, artefact_text
from repro.experiments.registry import EXPERIMENTS
from repro.goldens.scrub import BENCH_VOLATILE, scrub_payload
from repro.goldens.writer import RunWriter

#: Repository root (src layout: src/repro/goldens/surfaces.py -> root).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def _generate_bench_kernel(run: RunWriter) -> None:
    """Semantic projection of ``BENCH_kernel.json``.

    The live snapshot keeps its host fingerprint and wall-clock numbers;
    the golden records only the host-portable fields (schema, burst
    ablation counts) obtained by applying :data:`BENCH_VOLATILE` — the
    exact scrub the manifest hash uses, so drift here means a semantic
    benchmark change, never a slower machine.
    """
    bench_path = REPO_ROOT / "BENCH_kernel.json"
    if not bench_path.is_file():
        raise ExperimentError(
            f"{bench_path} missing; run `make bench-json` first"
        )
    payload = json.loads(bench_path.read_text())
    run.write_json(
        "bench_semantic.json", scrub_payload(payload, BENCH_VOLATILE)
    )


@dataclass(frozen=True, slots=True)
class Surface:
    """One golden-covered artifact surface."""

    name: str
    generate: Callable[[RunWriter], None]


def _experiment_surface(experiment: Experiment) -> Surface:
    """The surface that snapshots ``experiment`` at its quick preset."""

    def generate(run: RunWriter) -> None:
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
        for name, content in files.items():
            run.write_text(name, artefact_text(name, content))

    return Surface(experiment.name, generate)


#: Every artifact-producing surface, in verification order (fast first).
SURFACES: tuple[Surface, ...] = (
    Surface("bench_kernel", _generate_bench_kernel),
    *map(_experiment_surface, EXPERIMENTS),
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
