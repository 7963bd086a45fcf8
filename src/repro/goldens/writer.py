"""Crash-safe artifact writing: atomic files and atomic directories.

Two writers, one guarantee: a reader never sees a truncated file or a
mix of two runs' files, even under ``SIGKILL`` at the worst instant.

* :func:`atomic_write_text` replaces one file: the bytes go to a
  ``.tmp-*`` sibling, are flushed and ``fsync``'d, and the sibling is
  ``os.replace``'d over the target (readers see the old bytes or the
  new bytes, nothing in between).
* :func:`write_run` replaces a whole artifact directory (a golden
  surface, a campaign repro bundle): every file is written and
  ``fsync``'d inside a ``.tmp-*`` sibling directory, which is then
  swapped into place.  A crash leaves the old complete set, the new
  complete set, or a leftover ``.tmp-*`` directory — which a full
  ``repro verify-goldens`` reports as an ORPHAN — never a half-written
  set.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import tempfile
from typing import Mapping

#: Prefix of in-flight temporary files and directories.
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
    orphaned ``.tmp-*`` file.
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


def write_run(
    directory: str | pathlib.Path, files: Mapping[str, str]
) -> pathlib.Path:
    """Replace ``directory`` with exactly ``files`` (name -> UTF-8 text).

    The files are written byte for byte as given, each ``fsync``'d, into
    a ``.tmp-*`` sibling directory that then takes the target's place.
    A previous directory is first renamed aside and removed only after
    the new one is in place.
    """
    target = pathlib.Path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{TMP_PREFIX}{target.name}-", dir=target.parent)
    )
    try:
        staging.chmod(0o755)  # mkdtemp's 0700 would outlive the swap
        for name, text in files.items():
            with open(staging / name, "wb") as handle:
                handle.write(text.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
        _fsync_dir(staging)
        retired = staging.with_name(staging.name + "-old")
        if target.exists():
            os.rename(target, retired)
        os.rename(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _fsync_dir(target.parent)
    shutil.rmtree(retired, ignore_errors=True)
    return target
