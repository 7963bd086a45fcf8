"""Crash-safe artifact writing: atomic files, manifest written last.

The invariant every run must keep, even under ``SIGKILL`` at the worst
possible instant:

    a run directory either contains a complete artifact set crowned by
    ``MANIFEST.json``, or it is detectably invalid — never a truncated
    or partial file that a reader could mistake for a result.

Three mechanisms enforce it:

* every file is written to a ``.tmp-*`` sibling, flushed, ``fsync``'d,
  and atomically ``os.replace``'d into place (readers see the old bytes
  or the new bytes, nothing in between);
* the run-level ``MANIFEST.json`` is written *after* every artifact it
  lists (and via the same atomic dance), so its existence proves the
  set is complete;
* on the next run, :class:`RunWriter` detects a directory with
  artifacts but no manifest — the fingerprint of an interrupted run —
  and cleans the stale partials before writing anything.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Any, Callable, Iterable

from repro.errors import ExperimentError
from repro.goldens.manifest import MANIFEST_NAME, FileEntry, Manifest
from repro.goldens.scrub import canonical_file_hash, raw_file_hash

#: Prefix of in-flight temporary files (cleaned up by the next run).
TMP_PREFIX = ".tmp-"


def _fsync_dir(directory: pathlib.Path) -> None:
    """Flush the directory entry so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | pathlib.Path, text: str, encoding: str = "utf-8"
) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically (temp + fsync + rename).

    The target is never truncated in place: a crash mid-write leaves
    either the previous content or the new content, plus at worst an
    orphaned ``.tmp-*`` file that the next :class:`RunWriter` removes.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=TMP_PREFIX + target.name + "-", dir=target.parent
    )
    tmp = pathlib.Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(target.parent)
    return target


def atomic_write_json(
    path: str | pathlib.Path, payload: Any, sort_keys: bool = True
) -> pathlib.Path:
    """Atomically write ``payload`` as stable, human-diffable JSON."""
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"
    )


class RunWriter:
    """Crash-safe writer for one run's artifact directory.

    Usage::

        run = RunWriter(out_dir, surface="figure2")
        run.write_csv("figure2.csv", rows)
        run.write_json("expectations.json", checks)
        manifest = run.finalize()      # writes MANIFEST.json, last

    Construction claims the directory: orphaned temp files and stale
    partial artifacts from an interrupted previous run are removed (and
    reported via ``self.cleaned_stale``), as is any previous completed
    run — a run directory always reflects exactly one run.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        surface: str,
        out: Callable[[str], None] | None = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.surface = surface
        self.entries: dict[str, FileEntry] = {}
        self.cleaned_stale: list[str] = []
        self.finalized = False
        self.directory.mkdir(parents=True, exist_ok=True)
        self._clean(out)

    def _clean(self, out: Callable[[str], None] | None) -> None:
        """Reset the directory, reporting stale partials from a crash."""
        manifest_path = self.directory / MANIFEST_NAME
        had_manifest = manifest_path.is_file()
        # Remove the manifest FIRST: from this instant the directory is
        # invalid, so a crash anywhere in the rewrite cannot leave an
        # old manifest blessing a mix of old and new artifacts.
        if had_manifest:
            manifest_path.unlink()
            _fsync_dir(self.directory)
        for path in sorted(self.directory.iterdir()):
            if not path.is_file():
                continue
            if not had_manifest and not path.name.startswith(TMP_PREFIX):
                # Artifacts without a manifest: an interrupted run.
                self.cleaned_stale.append(path.name)
                if out is not None:
                    out(
                        f"[goldens] {self.surface}: removing stale partial "
                        f"{path.name!r} from an interrupted run"
                    )
            path.unlink()

    def _record(self, name: str) -> pathlib.Path:
        path = self.directory / name
        self.entries[name] = FileEntry(
            sha256=canonical_file_hash(path),
            raw_sha256=raw_file_hash(path),
            bytes=path.stat().st_size,
        )
        return path

    def _check_name(self, name: str) -> None:
        if self.finalized:
            raise ExperimentError(
                f"run {self.surface!r} already finalized; cannot add {name!r}"
            )
        if "/" in name or name == MANIFEST_NAME or name.startswith(TMP_PREFIX):
            raise ExperimentError(f"invalid artifact name {name!r}")
        if name in self.entries:
            raise ExperimentError(f"artifact {name!r} written twice")

    def write_text(self, name: str, text: str) -> pathlib.Path:
        """Atomically write a plain-text artifact."""
        self._check_name(name)
        atomic_write_text(self.directory / name, text)
        return self._record(name)

    def write_json(self, name: str, payload: Any) -> pathlib.Path:
        """Atomically write a JSON artifact."""
        self._check_name(name)
        atomic_write_json(self.directory / name, payload)
        return self._record(name)

    def write_csv(self, name: str, rows: Iterable[Any]) -> pathlib.Path:
        """Atomically write dataclass/dict rows as a CSV artifact."""
        from repro.metrics.export import to_csv

        self._check_name(name)
        atomic_write_text(self.directory / name, to_csv(rows))
        return self._record(name)

    def finalize(self) -> Manifest:
        """Write ``MANIFEST.json`` — the run is only now valid."""
        if self.finalized:
            raise ExperimentError(f"run {self.surface!r} finalized twice")
        manifest = Manifest(surface=self.surface, files=dict(self.entries))
        atomic_write_text(self.directory / MANIFEST_NAME, manifest.to_json())
        self.finalized = True
        return manifest
