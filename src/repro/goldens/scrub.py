"""Canonical artifact hashing.

Golden artifacts must hash identically on every host, every run.  Every
golden is the output of a simulated-time-deterministic run, so the only
threat left is **representation noise** — dict insertion order, trailing
newlines, CRLF conversions.  The hash must see structure, not spelling.

JSON artifacts are therefore parsed and hashed through the same
type-tagged canonical encoder that hashes machine state
(:mod:`repro.sim.statehash`).  CSV and plain-text artifacts are hashed
over newline-normalized UTF-8.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any

from repro.errors import ExperimentError
from repro.sim.statehash import hash_payload


def normalize_text(text: str) -> str:
    """Newline-normalize text so checkouts never change a hash."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def raw_file_hash(path: str | pathlib.Path) -> str:
    """SHA-256 hex digest of the file's exact bytes (truncation guard)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_payload(path: str | pathlib.Path) -> Any:
    """The drift-comparable content of an artifact file.

    JSON files parse to their payload; everything else (CSV, plain
    text) to its newline-normalized text.
    """
    target = pathlib.Path(path)
    is_json = target.suffix == ".json"
    try:
        text = target.read_text()
        if is_json:
            return json.loads(text)
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        kind = "JSON" if is_json else "UTF-8 text"
        raise ExperimentError(
            f"{target}: not valid {kind} (truncated artifact?): {exc}"
        ) from None
    return normalize_text(text)


def canonical_file_hash(path: str | pathlib.Path) -> str:
    """Canonical SHA-256 of an artifact.

    This is the hash recorded in manifests and compared by the drift
    gate: equal iff the artifacts' content is structurally identical,
    regardless of key order or newline convention.
    """
    content = canonical_payload(path)
    if isinstance(content, str):
        return hashlib.sha256(content.encode("utf-8")).hexdigest()
    return hash_payload(content)
