"""Experiments: one module per paper figure, plus ablations.

Each experiment module exposes a ``run_*`` function that sweeps the
relevant parameter (consistency system, network size, threshold, ...),
returns structured rows, and can render the same series the paper's
figure reports via :func:`repro.metrics.report.format_table` — and one
:class:`~repro.experiments.common.Experiment` declaration, from which
the CLI subcommand, golden surface, smoke run and benchmark are derived
(:mod:`repro.experiments.registry`).

The benchmark harness in ``benchmarks/`` runs the quick presets by
default; set the environment variable ``REPRO_FULL=1`` to run the
paper-scale sweeps (1024 tasks, up to 129 processors).
"""

from repro.experiments.burst import BurstRow, run_burst_sweep
from repro.experiments.common import SCALE_FULL, SCALE_QUICK, sweep_scale
from repro.experiments.figure1 import Figure1Row, run_figure1
from repro.experiments.figure2 import Figure2Row, run_figure2
from repro.experiments.figure8 import Figure8Row, run_figure8

__all__ = [
    "BurstRow",
    "Figure1Row",
    "Figure2Row",
    "Figure8Row",
    "SCALE_FULL",
    "SCALE_QUICK",
    "run_burst_sweep",
    "run_figure1",
    "run_figure2",
    "run_figure8",
    "sweep_scale",
]
