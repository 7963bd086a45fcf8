"""Experiments: one module per paper figure, plus ablations.

Each experiment module exposes a ``run_*`` function that sweeps the
relevant parameter (consistency system, network size, threshold, ...),
returns structured rows, and can render the same series the paper's
figure reports via :func:`repro.metrics.report.format_table` — and one
:class:`~repro.experiments.common.Experiment` declaration, from which
the CLI subcommand, golden surfaces and smoke run are derived
(:mod:`repro.experiments.registry`).

Every sweep runs its quick preset by default; ``repro <name> --full``
(library: ``run_figure2(**figure2.FULL)``) runs the paper's scale (1024
tasks, up to 129 processors).
"""

from importlib import import_module

#: Public name -> defining submodule, resolved on first access (PEP 562),
#: so ``import repro.experiments.figure2`` compiles Figure 2 only.
_EXPORTS = {
    "Figure1Row": "figure1",
    "Figure2Row": "figure2",
    "Figure8Row": "figure8",
    "run_figure1": "figure1",
    "run_figure2": "figure2",
    "run_figure8": "figure8",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
