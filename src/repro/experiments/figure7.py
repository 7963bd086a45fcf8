"""Figure 7 — the most complex rollback interaction.

The requester speculates on a lock whose local copy looks free while
another processor's request reaches the root first: the requester must
roll back, the Figure 6 filter must drop its stale echoes, the root
must discard its speculative writes, and every node must converge on
the same final value (see :func:`repro.workloads.scenarios.run_figure7`).
"""

from __future__ import annotations

from repro.experiments.common import Experiment, Files, PaperExpectation
from repro.metrics.report import format_table
from repro.workloads.scenarios import Figure7Config, run_figure7

#: ``extra`` key -> table label, in display order.
EVENTS = {
    "requester_rolled_back": "requester rolled back",
    "echoes_dropped": "stale echoes dropped (Fig. 6)",
    "root_discards": "speculative root discards",
    "converged": "all nodes converged",
}


def _run() -> Files:
    extra = run_figure7(Figure7Config()).extra
    return {"figure7.json": {key: extra[key] for key in EVENTS}}


EXPERIMENT = Experiment(
    name="figure7",
    help="Figure 7: rollback interaction scenario",
    run=_run,
    render=lambda files: format_table(
        ["event", "value"],
        [[label, files["figure7.json"][key]] for key, label in EVENTS.items()],
        title="Figure 7: the most complex rollback interaction",
    ),
    expectations=lambda files: [
        PaperExpectation(
            "the requester's speculation is rolled back",
            files["figure7.json"]["requester_rolled_back"],
        ),
        PaperExpectation(
            "every node converges on the same final value",
            files["figure7.json"]["converged"],
        ),
    ],
)
