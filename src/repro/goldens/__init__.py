"""Continuous-verify guardrail for run artifacts.

Every figure, chaos, failover and sharded-root run in this repository
produces a small set of machine-readable artifacts.  The
paper's claims live entirely in those artifacts, so refactoring the
simulator aggressively is only safe if every one of them is pinned byte
for byte and every write of them is crash-safe.  This package is that
fence:

* :mod:`repro.goldens.surfaces` — the artifact-producing surfaces: one
  per experiment in :mod:`repro.experiments.registry`, each rendered in
  memory as ``{file name: text}``;
* :mod:`repro.goldens.verify` — the ``repro verify-goldens`` /
  ``repro update-goldens`` flows and the CI drift gate's exit codes:
  compare the file set with ``goldens/<surface>/``, then the bytes;
* :mod:`repro.goldens.diff` — the per-field report printed under a byte
  mismatch;
* :mod:`repro.goldens.writer` — crash-safe writers: one file (temp +
  fsync + rename) or one whole directory (written aside, then swapped
  into place).

Git stores and checks the committed bytes; ``.gitattributes`` keeps a
checkout from rewriting their line endings.

Drift-gate contract: timing-transparent changes must keep every golden
byte-identical (hard fail otherwise); semantic changes regenerate the
goldens via the explicit ``REPRO_REGEN_GOLDENS=1`` kill-switch and the
printed diff summary is reviewed with the PR.
"""

from __future__ import annotations

from repro.goldens.verify import (
    EXIT_CLEAN,
    EXIT_DRIFT,
    EXIT_USAGE,
    REGEN_ENV,
    update_goldens,
    verify_goldens,
)
from repro.goldens.writer import atomic_write_text, write_run

__all__ = [
    "EXIT_CLEAN",
    "EXIT_DRIFT",
    "EXIT_USAGE",
    "REGEN_ENV",
    "atomic_write_text",
    "update_goldens",
    "verify_goldens",
    "write_run",
]
