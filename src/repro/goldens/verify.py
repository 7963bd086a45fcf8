"""``repro verify-goldens`` / ``repro update-goldens`` and the drift gate.

Exit-code contract (asserted by the test suite and relied on by CI):

* ``0`` — clean: every golden surface regenerated bit-identical;
* ``1`` — drift: at least one artifact changed, a golden is missing, a
  committed golden fails its own manifest integrity check, or a run
  could not be generated (its expectations failed);
* ``2`` — usage: unknown surface name, or an update attempted without
  the :data:`REGEN_ENV` kill-switch.

The kill-switch is the gate's "absolute off": goldens can only be
rewritten when ``REPRO_REGEN_GOLDENS=1`` is set explicitly, and every
update prints the per-file, per-field diff summary so a semantic PR can
paste what changed.  Timing-transparent PRs never set it — for them the
gate hard-fails on any drift.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Callable

from repro.errors import ReproError
from repro.goldens.diff import diff_artifacts
from repro.goldens.manifest import (
    MANIFEST_NAME,
    Manifest,
    load_manifest,
    manifest_errors,
)
from repro.goldens.scrub import canonical_file_hash
from repro.goldens.surfaces import REPO_ROOT, Surface, get_surfaces
from repro.goldens.writer import RunWriter

EXIT_CLEAN = 0
EXIT_DRIFT = 1
EXIT_USAGE = 2

#: The explicit kill-switch without which goldens are read-only.
REGEN_ENV = "REPRO_REGEN_GOLDENS"

#: Default committed goldens tree.
DEFAULT_GOLDENS_DIR = REPO_ROOT / "goldens"

Out = Callable[[str], None]


def regen_enabled(environ: dict[str, str] | None = None) -> bool:
    """True iff the regeneration kill-switch is explicitly armed."""
    env = os.environ if environ is None else environ
    return env.get(REGEN_ENV, "") not in ("", "0")


def _generate_into(
    surface: Surface, directory: pathlib.Path, out: Out
) -> Manifest | None:
    """Run one surface's generator crash-safely into ``directory``.

    ``None`` (after an ERROR line) when the run cannot be generated —
    e.g. one of its expectations failed: a broken run is never a golden.
    """
    run = RunWriter(directory, surface.name, out=out)
    try:
        surface.generate(run)
    except ReproError as exc:
        out(f"[goldens] {surface.name:<12s} ERROR {exc}")
        return None
    return run.finalize()


def _compare_surface(
    surface: Surface,
    golden_dir: pathlib.Path,
    fresh_dir: pathlib.Path,
    fresh: Manifest,
    out: Out,
) -> list[str]:
    """Diff a fresh run against the committed goldens for one surface.

    Returns drift lines (empty = bit-identical).  Integrity problems in
    the committed goldens themselves (truncation, single-byte edits) are
    reported alongside the per-field diff: the comparison hashes the
    golden files **as they are on disk**, not as the manifest remembers
    them, so a tampered golden can never hide behind a stale manifest
    entry that happens to match the fresh run.
    """
    lines = [
        f"golden integrity: {problem}"
        for problem in manifest_errors(golden_dir)
    ]
    try:
        golden = load_manifest(golden_dir)
    except ReproError:
        return lines  # no manifest: integrity lines already say so
    for name in sorted(set(golden.files) | set(fresh.files)):
        if name not in fresh.files:
            lines.append(f"{name}: in goldens but no longer generated")
            continue
        if name not in golden.files:
            lines.append(f"{name}: newly generated, not in goldens")
            continue
        golden_path = golden_dir / name
        if not golden_path.is_file():
            continue  # integrity lines already flagged the absence
        try:
            disk_hash = canonical_file_hash(golden_path)
        except ReproError as exc:
            lines.append(f"{name}: unreadable golden ({exc})")
            continue
        if disk_hash == fresh.files[name].sha256:
            continue
        lines.append(f"{name}: canonical sha256 drifted")
        for field_line in diff_artifacts(golden_path, fresh_dir / name):
            lines.append(f"  {field_line}")
    return lines


def verify_goldens(
    goldens_dir: str | pathlib.Path | None = None,
    only: tuple[str, ...] | None = None,
    out: Out = print,
) -> int:
    """Regenerate every surface and compare against committed goldens.

    Prints one status line per surface and a per-file / per-field diff
    report for anything that drifted.  Returns an exit code per the
    module contract.
    """
    root = pathlib.Path(goldens_dir) if goldens_dir else DEFAULT_GOLDENS_DIR
    try:
        surfaces = get_surfaces(only)
    except ReproError as exc:
        out(f"verify-goldens: {exc}")
        return EXIT_USAGE
    drifted: list[str] = []
    for surface in surfaces:
        golden_dir = root / surface.name
        if not golden_dir.is_dir():
            out(f"[goldens] {surface.name:<12s} MISSING (no committed goldens)")
            drifted.append(surface.name)
            continue
        with tempfile.TemporaryDirectory(prefix="goldens-") as tmp:
            fresh_dir = pathlib.Path(tmp) / surface.name
            fresh = _generate_into(surface, fresh_dir, out)
            if fresh is None:
                drifted.append(surface.name)
                continue
            lines = _compare_surface(surface, golden_dir, fresh_dir, fresh, out)
        if lines:
            out(f"[goldens] {surface.name:<12s} DRIFT")
            for line in lines:
                out(f"    {line}")
            drifted.append(surface.name)
        else:
            out(
                f"[goldens] {surface.name:<12s} OK "
                f"({len(fresh.files)} file(s) bit-identical)"
            )
    clean = len(surfaces) - len(drifted)
    out(f"verify-goldens: {clean}/{len(surfaces)} surface(s) clean")
    if drifted:
        out(
            "drift detected in: "
            + ", ".join(drifted)
            + "\ntiming-transparent changes must keep goldens bit-identical;"
            + "\nfor a semantic change run: "
            + f"{REGEN_ENV}=1 make goldens   (and commit the printed diff)"
        )
        return EXIT_DRIFT
    return EXIT_CLEAN


def update_goldens(
    goldens_dir: str | pathlib.Path | None = None,
    only: tuple[str, ...] | None = None,
    out: Out = print,
    environ: dict[str, str] | None = None,
) -> int:
    """Regenerate the committed goldens (kill-switch protected).

    Refuses (exit 2) unless ``REPRO_REGEN_GOLDENS=1`` is set.  For each
    surface, generates a fresh run, prints the per-file / per-field diff
    against the previous goldens, then atomically replaces them (the
    surface's manifest is deleted first and rewritten last, so an
    interrupt mid-update leaves an invalid — never a half-new — golden).
    """
    if not regen_enabled(environ):
        out(
            f"update-goldens: refusing to rewrite goldens without the "
            f"{REGEN_ENV}=1 kill-switch\n"
            "(this is the CI drift gate's 'absolute off'; set it only for "
            "reviewed semantic changes)"
        )
        return EXIT_USAGE
    root = pathlib.Path(goldens_dir) if goldens_dir else DEFAULT_GOLDENS_DIR
    try:
        surfaces = get_surfaces(only)
    except ReproError as exc:
        out(f"update-goldens: {exc}")
        return EXIT_USAGE
    changed = 0
    for surface in surfaces:
        golden_dir = root / surface.name
        with tempfile.TemporaryDirectory(prefix="goldens-") as tmp:
            fresh_dir = pathlib.Path(tmp) / surface.name
            fresh = _generate_into(surface, fresh_dir, out)
            if fresh is None:
                return EXIT_DRIFT
            had_goldens = (golden_dir / MANIFEST_NAME).is_file()
            lines: list[str] = []
            if had_goldens:
                lines = _compare_surface(
                    surface, golden_dir, fresh_dir, fresh, out
                )
            if had_goldens and not lines:
                out(f"[goldens] {surface.name:<12s} unchanged")
                continue
            changed += 1
            if lines:
                out(f"[goldens] {surface.name:<12s} UPDATED")
                for line in lines:
                    out(f"    {line}")
            else:
                out(
                    f"[goldens] {surface.name:<12s} RECORDED "
                    f"({len(fresh.files)} file(s))"
                )
            # Install: claim the directory (deletes the old manifest
            # first), copy artifacts atomically, manifest last.
            install = RunWriter(golden_dir, surface.name, out=out)
            for name in sorted(fresh.files):
                install.write_text(name, (fresh_dir / name).read_text())
            install.finalize()
    out(
        f"update-goldens: {changed}/{len(surfaces)} surface(s) rewritten "
        f"under {root}"
    )
    return EXIT_CLEAN


__all__ = [
    "EXIT_CLEAN",
    "EXIT_DRIFT",
    "EXIT_USAGE",
    "REGEN_ENV",
    "DEFAULT_GOLDENS_DIR",
    "regen_enabled",
    "update_goldens",
    "verify_goldens",
]
