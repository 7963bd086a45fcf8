"""Continuous-verify guardrail for run artifacts.

Every figure, chaos, failover and sharded-root run in this repository
produces a small set of machine-readable artifacts.  The
paper's claims live entirely in those artifacts, so refactoring the
simulator aggressively is only safe if every one of them is
tamper-evident and every run is crash-safe.  This package is that fence:

* :mod:`repro.goldens.scrub` — canonical per-file SHA-256 hashing, so
  JSON key order and newline conventions never reach a hash that is
  supposed to be portable;
* :mod:`repro.goldens.writer` — a crash-safe artifact writer (atomic
  temp + fsync + rename per file, run-level ``MANIFEST.json`` written
  last, stale-partial detection and cleanup on the next run);
* :mod:`repro.goldens.manifest` — the manifest model and integrity
  checks;
* :mod:`repro.goldens.diff` — per-file and per-field drift reports;
* :mod:`repro.goldens.surfaces` — the artifact-producing surfaces: one
  per experiment in :mod:`repro.experiments.registry`;
* :mod:`repro.goldens.verify` — the ``repro verify-goldens`` /
  ``repro update-goldens`` flows and the CI drift gate's exit codes.

Drift-gate contract: timing-transparent changes must keep every golden
bit-identical (hard fail otherwise); semantic changes regenerate the
goldens via the explicit ``REPRO_REGEN_GOLDENS=1`` kill-switch and the
printed diff summary is reviewed with the PR.
"""

from __future__ import annotations

from repro.goldens.manifest import (
    MANIFEST_NAME,
    Manifest,
    load_manifest,
    manifest_errors,
)
from repro.goldens.scrub import canonical_file_hash, raw_file_hash
from repro.goldens.verify import (
    EXIT_CLEAN,
    EXIT_DRIFT,
    EXIT_USAGE,
    REGEN_ENV,
    update_goldens,
    verify_goldens,
)
from repro.goldens.writer import RunWriter, atomic_write_json, atomic_write_text

__all__ = [
    "EXIT_CLEAN",
    "EXIT_DRIFT",
    "EXIT_USAGE",
    "MANIFEST_NAME",
    "Manifest",
    "REGEN_ENV",
    "RunWriter",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_file_hash",
    "load_manifest",
    "manifest_errors",
    "raw_file_hash",
    "update_goldens",
    "verify_goldens",
]
