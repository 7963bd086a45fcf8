"""``repro verify-goldens`` / ``repro update-goldens`` and the drift gate.

Exit-code contract (asserted by the test suite and relied on by CI):

* ``0`` — clean: every golden surface regenerated byte-identical;
* ``1`` — drift: a file's bytes changed, a golden file is missing or
  stray, a surface has no golden directory, a run could not be
  generated (its expectations failed), or — on a full run — a committed
  goldens directory is claimed by no surface (an orphan, such as the
  ``.tmp-*`` leftover of an interrupted update);
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
from typing import Callable

from repro.errors import ReproError
from repro.goldens.diff import diff_artifacts
from repro.goldens.surfaces import REPO_ROOT, Surface, get_surfaces
from repro.goldens.writer import write_run

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


def _generate(surface: Surface, out: Out) -> dict[str, str] | None:
    """One surface's fresh files, ``{name: text}``.

    ``None`` (after an ERROR line) when the run cannot be generated —
    e.g. one of its expectations failed: a broken run is never a golden.
    """
    try:
        return surface.generate()
    except ReproError as exc:
        out(f"[goldens] {surface.name:<12s} ERROR {exc}")
        return None


def _compare_surface(golden_dir: pathlib.Path, fresh: dict[str, str]) -> list[str]:
    """Drift lines for one surface (empty = byte-identical).

    First the file sets, then each common file's bytes as they are on
    disk; a byte mismatch is followed by its per-field diff.
    """
    committed = {path.name for path in golden_dir.iterdir()}
    lines = [
        f"{name}: in goldens but no longer generated"
        for name in sorted(committed - set(fresh))
    ] + [
        f"{name}: newly generated, not in goldens"
        for name in sorted(set(fresh) - committed)
    ]
    for name in sorted(committed & set(fresh)):
        golden = (golden_dir / name).read_bytes()
        current = fresh[name].encode("utf-8")
        if golden == current:
            continue
        lines.append(
            f"{name}: bytes differ ({len(golden)} golden vs {len(current)} current)"
        )
        fields = diff_artifacts(name, golden, current) or [
            "no field differs: line endings or spacing only"
        ]
        lines.extend(f"  {line}" for line in fields)
    return lines


def orphan_dirs(root: pathlib.Path, surfaces: tuple[Surface, ...]) -> list[str]:
    """Directories under ``root`` that no surface in ``surfaces`` claims."""
    if not root.is_dir():
        return []
    claimed = {surface.name for surface in surfaces}
    return sorted(
        path.name
        for path in root.iterdir()
        if path.is_dir() and path.name not in claimed
    )


def verify_goldens(
    goldens_dir: str | pathlib.Path | None = None,
    only: tuple[str, ...] | None = None,
    out: Out = print,
) -> int:
    """Regenerate every surface and compare against committed goldens.

    Prints one status line per surface and a per-file / per-field diff
    report for anything that drifted.  A full run (no ``only``) also
    reports every committed directory no surface claims as an ORPHAN:
    a retired experiment's goldens would otherwise pass unnoticed.
    Returns an exit code per the module contract.
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
        fresh = _generate(surface, out)
        if fresh is None:
            drifted.append(surface.name)
            continue
        lines = _compare_surface(golden_dir, fresh)
        if lines:
            out(f"[goldens] {surface.name:<12s} DRIFT")
            for line in lines:
                out(f"    {line}")
            drifted.append(surface.name)
        else:
            out(
                f"[goldens] {surface.name:<12s} OK "
                f"({len(fresh)} file(s) byte-identical)"
            )
    orphans = orphan_dirs(root, surfaces) if only is None else []
    for name in orphans:
        out(
            f"[goldens] {name:<12s} ORPHAN (claimed by no surface; "
            f"delete {root / name} or register its experiment)"
        )
    clean = len(surfaces) - len(drifted)
    out(f"verify-goldens: {clean}/{len(surfaces)} surface(s) clean")
    if drifted or orphans:
        out(
            "drift detected in: "
            + ", ".join(drifted + orphans)
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
    against the previous goldens, then swaps the new files in with
    :func:`~repro.goldens.writer.write_run`, byte for byte as generated:
    an interrupt mid-update leaves the old set, the new set, or a
    ``.tmp-*`` orphan — never a half-new golden.
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
        fresh = _generate(surface, out)
        if fresh is None:
            return EXIT_DRIFT
        had_goldens = golden_dir.is_dir()
        lines = _compare_surface(golden_dir, fresh) if had_goldens else []
        if had_goldens and not lines:
            out(f"[goldens] {surface.name:<12s} unchanged")
            continue
        changed += 1
        if lines:
            out(f"[goldens] {surface.name:<12s} UPDATED")
            for line in lines:
                out(f"    {line}")
        else:
            out(f"[goldens] {surface.name:<12s} RECORDED ({len(fresh)} file(s))")
        write_run(golden_dir, fresh)
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
    "orphan_dirs",
    "regen_enabled",
    "update_goldens",
    "verify_goldens",
]
