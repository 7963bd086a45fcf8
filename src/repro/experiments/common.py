"""Shared experiment plumbing: declarations, scales, and expectations.

The paper's sweeps run 1024 tasks on up to 129 processors; that is
minutes of wall-clock in a pure-Python simulator, too slow for a unit
test loop.  Experiments therefore support two scales:

* ``quick`` — reduced sizes, used by default in tests and benchmarks;
* ``full``  — the paper's sizes, enabled with ``--full`` on the CLI or
  ``REPRO_FULL=1`` for library and benchmark runs (used to produce the
  numbers recorded in EXPERIMENTS.md).

Every experiment family is declared once, as an :class:`Experiment`
beside its ``run_*`` function; the CLI subcommand, golden surface, smoke
run and bench wrapper are derived from it (see
:mod:`repro.experiments.registry`).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping

SCALE_QUICK = "quick"
SCALE_FULL = "full"

#: Environment variable that switches benchmarks to paper scale.
FULL_ENV = "REPRO_FULL"


def sweep_scale() -> str:
    """The active scale, from the ``REPRO_FULL`` environment variable."""
    return SCALE_FULL if os.environ.get(FULL_ENV, "") not in ("", "0") else SCALE_QUICK


def scale_preset(
    quick: Mapping[str, Any], full: Mapping[str, Any] | None
) -> Mapping[str, Any]:
    """``full`` under ``REPRO_FULL=1`` (when there is one), else ``quick``."""
    return full if full is not None and sweep_scale() == SCALE_FULL else quick


@dataclass(frozen=True, slots=True)
class PaperExpectation:
    """A qualitative claim from the paper that a sweep must reproduce."""

    claim: str
    holds: bool

    def __str__(self) -> str:
        marker = "OK " if self.holds else "FAIL"
        return f"[{marker}] {self.claim}"


def claims_payload(checks: list[PaperExpectation]) -> dict[str, bool]:
    """Expectations as the ``{claim: holds}`` payload the goldens record."""
    return {check.claim: check.holds for check in checks}


def int_tuple(text: str) -> tuple[int, ...]:
    """Parse a comma-separated size list (``"3,5,9"``)."""
    return tuple(int(part) for part in text.split(",") if part)


def name_tuple(text: str) -> tuple[str, ...]:
    """Parse a comma-separated name list (``"gwc,entry"``)."""
    return tuple(part for part in text.split(",") if part)


@dataclass(frozen=True, slots=True)
class Flag:
    """One CLI flag overriding one preset parameter of an experiment."""

    spelling: str
    param: str
    parse: Callable[[str], Any] = int
    help: str = ""
    #: When set, the flag is a switch storing this value (``--no-x``).
    const: Any = None


JOBS = Flag(
    "--jobs",
    "jobs",
    help="worker processes for sweep points (default: $REPRO_JOBS, else "
    "every usable CPU; 1 = serial); results are identical at any job count",
)
SIZES = Flag("--sizes", "sizes", int_tuple, "comma-separated sweep sizes")

#: ``{golden file name: rows | JSON payload}``, in writing order.
Files = dict[str, Any]


def artefact_text(name: str, content: Any) -> str:
    """One artefact as its golden records it: CSV for ``.csv`` rows, else
    stable indented JSON (row dataclasses become dicts)."""
    # Imported here: a library user who only runs a sweep (the layered
    # benchmark's workloads) should not load the serialisers.
    import json

    from repro.metrics.export import to_csv

    if name.endswith(".csv"):
        return to_csv(content)
    return (
        json.dumps(content, indent=2, sort_keys=True, default=dataclasses.asdict)
        + "\n"
    )


def render_artefacts(files: Files) -> str:
    """The plain ``render``: every artefact, as its golden records it."""
    return "\n".join(
        f"{name}:\n{artefact_text(name, content)}"
        for name, content in files.items()
    )


@dataclass(frozen=True, slots=True, kw_only=True)
class Experiment:
    """One experiment family, declared once.

    ``quick`` is the pinned parameter set that is at once CLI default,
    golden surface and smoke run; ``full`` is what ``--full`` selects
    (``None``: no paper scale); parameters a preset leaves out keep the
    defaults of ``run``.  ``run(**params)`` returns the artefacts, which
    ``render`` (default: print them as recorded) and ``expectations``
    read back.  A failed expectation is exit code 1, a refused golden
    snapshot and a failed benchmark alike.
    """

    name: str
    help: str
    quick: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    full: Mapping[str, Any] | None = None
    run: Callable[..., Files]
    render: Callable[[Files], str] = render_artefacts
    expectations: Callable[[Files], list[PaperExpectation]]
    flags: tuple[Flag, ...] = ()
    #: ASCII chart of the artefacts, offered as ``--chart``.
    chart: Callable[[Files], str] | None = None
    #: The file whose rows ``--csv FILE`` exports (None: no ``--csv``).
    csv: str | None = None
    #: Raises :class:`~repro.errors.FaultError` for parameters that
    #: cannot run; the CLI calls it before ``run`` (usage error, exit 2).
    validate: Callable[..., None] | None = None
    #: The preset applies only under ``--smoke`` and the bare command runs
    #: ``run``'s own defaults (chaos, campaign: their everyday runs are
    #: larger than the smoke their goldens pin).
    smoke_flag: bool = False
