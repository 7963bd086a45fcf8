"""The run-level manifest model and its integrity checks.

A manifest (``MANIFEST.json``) is the *last* file a run writes: its
presence asserts "every artifact listed here was fully written and
fsynced before I existed".  A directory holding artifacts but no valid
manifest is, by construction, an interrupted run — never a silently
partial artifact set, because nothing downstream will accept it.

Each file entry records two hashes:

* ``sha256`` — the canonical hash used by the drift gate (insensitive
  to JSON key order and newline convention);
* ``raw_sha256`` + ``bytes`` — the exact on-disk bytes, which catch
  truncation and single-byte tampering of a committed golden.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExperimentError
from repro.goldens.scrub import canonical_file_hash, raw_file_hash

#: File name of the run-level manifest, written last in every run.
MANIFEST_NAME = "MANIFEST.json"

#: Manifest format version.
MANIFEST_SCHEMA = 1


@dataclass(frozen=True, slots=True)
class FileEntry:
    """One artifact's record in a manifest."""

    sha256: str
    raw_sha256: str
    bytes: int

    def to_payload(self) -> dict[str, Any]:
        return {
            "sha256": self.sha256,
            "raw_sha256": self.raw_sha256,
            "bytes": self.bytes,
        }


@dataclass(frozen=True, slots=True)
class Manifest:
    """A completed run's artifact inventory."""

    surface: str
    files: dict[str, FileEntry] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "surface": self.surface,
            "files": {
                name: self.files[name].to_payload()
                for name in sorted(self.files)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"


def _file_entry(name: str, entry: dict[str, Any]) -> FileEntry:
    fields = set(FileEntry.__dataclass_fields__)
    if set(entry) != fields:
        # Names the keys: a manifest from an older writer carries fields
        # this reader dropped, and ``make goldens`` is the way out.
        raise ValueError(
            f"{name}: unknown field(s) {sorted(set(entry) - fields)}, "
            f"missing field(s) {sorted(fields - set(entry))} "
            "(written by another version? `make goldens` rewrites it)"
        )
    return FileEntry(**entry)


def parse_manifest(text: str | bytes) -> Manifest:
    """Parse manifest JSON, raising :class:`ExperimentError` if malformed.

    A file entry with a missing or an unknown field is malformed: the
    gate never reads a manifest it only half understands.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ExperimentError(f"manifest is not valid JSON: {exc}") from None
    try:
        return Manifest(
            surface=payload["surface"],
            files={
                name: _file_entry(name, entry)
                for name, entry in payload["files"].items()
            },
            schema=int(payload["schema"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(f"manifest is malformed: {exc}") from None


def load_manifest(directory: str | pathlib.Path) -> Manifest:
    """Load ``MANIFEST.json`` from a run directory.

    Raises :class:`ExperimentError` when there is no manifest — the
    signature of an interrupted (and therefore invalid) run.
    """
    path = pathlib.Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise ExperimentError(
            f"{directory}: no {MANIFEST_NAME} — not a completed run "
            "(interrupted runs never write a manifest)"
        )
    return parse_manifest(path.read_bytes())


def manifest_errors(directory: str | pathlib.Path) -> list[str]:
    """Integrity-check a run directory against its manifest.

    Returns a list of human-readable problems (empty = valid): missing
    manifest, files listed but absent, byte counts or raw hashes that no
    longer match (truncation / tampering), and stray artifact files the
    manifest never recorded.
    """
    directory = pathlib.Path(directory)
    try:
        manifest = load_manifest(directory)
    except ExperimentError as exc:
        return [str(exc)]
    problems: list[str] = []
    for name, entry in manifest.files.items():
        path = directory / name
        if not path.is_file():
            problems.append(f"{name}: listed in manifest but missing on disk")
            continue
        size = path.stat().st_size
        if size != entry.bytes:
            problems.append(
                f"{name}: {size} bytes on disk, manifest recorded "
                f"{entry.bytes} (truncated or rewritten)"
            )
        raw = raw_file_hash(path)
        if raw != entry.raw_sha256:
            problems.append(
                f"{name}: raw sha256 {raw[:12]}... does not match manifest "
                f"{entry.raw_sha256[:12]}... (content changed)"
            )
            continue
        try:
            canonical = canonical_file_hash(path)
        except ExperimentError as exc:
            problems.append(str(exc))
            continue
        if canonical != entry.sha256:
            problems.append(
                f"{name}: canonical sha256 drifted from manifest "
                f"({canonical[:12]}... != {entry.sha256[:12]}...)"
            )
    recorded = set(manifest.files)
    for path in sorted(directory.iterdir()):
        if path.name == MANIFEST_NAME or not path.is_file():
            continue
        if path.name not in recorded:
            problems.append(f"{path.name}: on disk but not in the manifest")
    return problems
