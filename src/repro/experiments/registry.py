"""The one list of experiments.

The CLI's subcommands and ``repro reproduce``, the golden surfaces and
the parametrized benchmark all loop over :data:`EXPERIMENTS`; adding an
experiment is one declaration and one entry here.  Only those consumers
import this module, so a library user who runs one sweep does not pay
for loading the fault stack.
"""

from __future__ import annotations

from repro.experiments import (
    ablation,
    analytic,
    burst,
    chaos,
    figure1,
    figure2,
    figure7,
    figure8,
    grouping,
    replication,
    rootshard,
    sensitivity,
)
from repro.experiments.common import Experiment

#: Every experiment, in golden-verification order (fast first).
EXPERIMENTS: tuple[Experiment, ...] = (
    figure1.EXPERIMENT,
    figure7.EXPERIMENT,
    replication.EXPERIMENT,
    figure2.EXPERIMENT,
    figure8.EXPERIMENT,
    grouping.EXPERIMENT,
    burst.EXPERIMENT,
    analytic.EXPERIMENT,
    sensitivity.EXPERIMENT,
    ablation.EXPERIMENT,
    rootshard.SHARDED_ROOT,
    rootshard.EXPERIMENT,
    chaos.FAILOVER,
    chaos.CAMPAIGN,
    chaos.CHAOS,
)

BY_NAME: dict[str, Experiment] = {exp.name: exp for exp in EXPERIMENTS}

#: What ``repro reproduce`` regenerates when no name is given.
PAPER_ARTEFACTS = ("figure1", "figure2", "figure8", "figure7", "ablation")
