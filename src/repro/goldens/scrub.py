"""Canonical artifact hashing with a volatile-field scrubber.

Golden artifacts must hash identically on every host, every run.  Two
things threaten that:

* **volatile fields** — host fingerprints, Python versions, wall-clock
  seconds, and throughput figures derived from them.  They belong *in*
  the artifact (a benchmark snapshot without its host is useless) but
  must never reach the hash, or the goldens stop being portable;
* **representation noise** — dict insertion order, trailing newlines,
  CRLF conversions.  The hash must see structure, not spelling.

JSON artifacts are therefore parsed, scrubbed of their declared volatile
paths, and hashed through the same type-tagged canonical encoder that
hashes machine state (:mod:`repro.sim.statehash`).
CSV and plain-text artifacts are hashed over newline-normalized UTF-8.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Sequence

from repro.errors import ExperimentError
from repro.sim.statehash import hash_payload

#: Volatile paths for ``BENCH_kernel.json`` (schema 6): everything
#: measured in wall-clock seconds (or derived from such a measurement)
#: plus the host fingerprint.  What stays in the hash — the schema and
#: the burst ablation counts — is the snapshot's portable semantic
#: content.
BENCH_VOLATILE: tuple[str, ...] = (
    "python",
    "cpu_count",
    "host",
    "kernel",
    "sweeps",
    "baseline",
)


def _match_prefix(path: tuple[str, ...], pattern: tuple[str, ...]) -> bool:
    """True if ``pattern`` (with ``*`` wildcard segments) equals ``path``."""
    if len(pattern) != len(path):
        return False
    return all(p in ("*", seg) for p, seg in zip(pattern, path))


def scrub_payload(payload: Any, volatile: Sequence[str] = ()) -> Any:
    """Drop every volatile dotted-path subtree from a parsed payload.

    ``volatile`` entries are dotted key paths (``host``, ``sweeps``,
    ``kernel.events_per_sec``); a ``*`` segment matches any key.  List
    elements are transparent: ``burst_ablation.reduction`` scrubs the
    ``reduction`` key of every row in a ``burst_ablation`` list.  The
    input is never mutated.
    """
    patterns = [tuple(entry.split(".")) for entry in volatile]

    def walk(obj: Any, path: tuple[str, ...]) -> Any:
        if isinstance(obj, dict):
            out = {}
            for key, value in obj.items():
                key_path = path + (str(key),)
                if any(_match_prefix(key_path, pat) for pat in patterns):
                    continue
                out[key] = walk(value, key_path)
            return out
        if isinstance(obj, list):
            return [walk(item, path) for item in obj]
        return obj

    return walk(payload, ())


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


def canonical_payload(
    path: str | pathlib.Path, volatile: Sequence[str] = ()
) -> Any:
    """The drift-comparable content of an artifact file.

    JSON files parse to their scrubbed payload; everything else (CSV,
    plain text) to its newline-normalized text.
    """
    target = pathlib.Path(path)
    if target.suffix == ".json":
        try:
            payload = json.loads(target.read_text())
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"{target}: not valid JSON (truncated artifact?): {exc}"
            ) from None
        return scrub_payload(payload, volatile)
    return normalize_text(target.read_text())


def canonical_file_hash(
    path: str | pathlib.Path, volatile: Sequence[str] = ()
) -> str:
    """Canonical SHA-256 of an artifact, volatile fields scrubbed.

    This is the hash recorded in manifests and compared by the drift
    gate: equal iff the artifacts' non-volatile content is structurally
    identical, regardless of host, key order, or newline convention.
    """
    content = canonical_payload(path, volatile)
    if isinstance(content, str):
        return hashlib.sha256(content.encode("utf-8")).hexdigest()
    return hash_payload(content)
