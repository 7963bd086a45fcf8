"""Closed-form performance model for the Figure 8 pipeline.

The pipeline's steady state is a single token circulating a ring: each
hop's critical path is

    Period_i = A + lock_delay_i + M + token_transit_i

so the network power is ``(A + M + C) / mean_i(Period_i)``.  The pieces
come straight from the machine parameters and the topology:

* ``lock_delay`` — the request/grant round trip between the node and
  the group root; the **optimistic** protocol overlaps it with the
  mutex section, leaving ``max(0, RT - M)`` exposed (§4: "in the best
  case, lock permission will have arrived before the computation
  finishes");
* ``token_transit`` — the eagershared data item's two legs, node → root
  → successor.

Predicting the simulated curves to within a few percent from this
four-term formula is the strongest evidence the simulator measures what
the paper's model says it should.  (Entry consistency is deliberately
not modelled here: its behaviour is dominated by queueing at the
demand-fetch hot-spot, which has no simple closed form — that is
rather the point the paper makes about demand-driven protocols.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Experiment, PaperExpectation
from repro.metrics.report import format_table
from repro.net.topology import make_topology
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.pipeline import PipelineConfig, run_pipeline


@dataclass(frozen=True, slots=True)
class AnalyticRow:
    """Predicted vs. simulated network power at one machine size."""

    n_nodes: int
    predicted_gwc: float
    simulated_gwc: float
    predicted_optimistic: float
    simulated_optimistic: float

    @property
    def gwc_error(self) -> float:
        return abs(self.predicted_gwc - self.simulated_gwc) / self.simulated_gwc

    @property
    def optimistic_error(self) -> float:
        return (
            abs(self.predicted_optimistic - self.simulated_optimistic)
            / self.simulated_optimistic
        )


def predict_power(
    config: PipelineConfig,
    optimistic: bool,
    params: MachineParams = PAPER_PARAMS,
) -> float:
    """Predict the pipeline's network power from the four-term model."""
    topology = make_topology(config.topology, config.n_nodes)
    a = config.local_time
    m = config.mutex_time
    packet = params.packet_bytes
    token_bytes = packet + config.item_bytes
    root = 0

    periods = []
    for node in range(config.n_nodes):
        succ = (node + 1) % config.n_nodes
        d_node = topology.hops(node, root)
        d_succ = topology.hops(root, succ)
        round_trip = params.wire_time(packet, d_node) + params.wire_time(
            packet, d_node
        )
        if optimistic:
            # The request overlaps the section; only the excess shows.
            # Saving/restoring the (word-sized) rollback set adds its
            # memory cost.
            save = 2 * params.memory_time(8 * 2)
            lock_delay = max(0.0, round_trip - m) + save
        else:
            lock_delay = round_trip
        token_transit = params.wire_time(token_bytes, d_node) + params.wire_time(
            token_bytes, d_succ
        )
        periods.append(a + m + lock_delay + token_transit)

    mean_period = sum(periods) / len(periods)
    return (2 * a + m) / mean_period


def run_analytic_validation(
    sizes: tuple[int, ...] = (2, 4, 8, 16, 32),
    data_size: int = 128,
    params: MachineParams = PAPER_PARAMS,
) -> list[AnalyticRow]:
    """Compare the closed form against full simulations."""
    rows = []
    for n_nodes in sizes:
        config = PipelineConfig(n_nodes=n_nodes, data_size=data_size, params=params)
        sim_gwc = run_pipeline(
            PipelineConfig(system="gwc", n_nodes=n_nodes, data_size=data_size,
                           params=params)
        )
        sim_opt = run_pipeline(
            PipelineConfig(system="gwc_optimistic", n_nodes=n_nodes,
                           data_size=data_size, params=params)
        )
        rows.append(
            AnalyticRow(
                n_nodes=n_nodes,
                predicted_gwc=predict_power(config, optimistic=False, params=params),
                simulated_gwc=sim_gwc.speedup,
                predicted_optimistic=predict_power(
                    config, optimistic=True, params=params
                ),
                simulated_optimistic=sim_opt.speedup,
            )
        )
    return rows


def render(rows: list[AnalyticRow]) -> str:
    return format_table(
        [
            "CPUs",
            "GWC predicted",
            "GWC simulated",
            "err %",
            "opt predicted",
            "opt simulated",
            "err %",
        ],
        [
            [
                row.n_nodes,
                row.predicted_gwc,
                row.simulated_gwc,
                row.gwc_error * 100,
                row.predicted_optimistic,
                row.simulated_optimistic,
                row.optimistic_error * 100,
            ]
            for row in rows
        ],
        title="Analytic model vs. simulation (Figure 8 pipeline)",
    )


EXPERIMENT = Experiment(
    name="analytic",
    help="closed-form pipeline model vs. simulation",
    run=lambda **params: {"analytic.csv": run_analytic_validation(**params)},
    render=lambda files: render(files["analytic.csv"]),
    expectations=lambda files: [
        PaperExpectation(
            "the four-term model predicts simulated power within 3% at "
            "every size, for both protocols",
            all(
                row.gwc_error < 0.03 and row.optimistic_error < 0.03
                for row in files["analytic.csv"]
            ),
        ),
        PaperExpectation(
            "the model reproduces the optimistic advantage itself",
            all(
                row.predicted_optimistic > row.predicted_gwc
                for row in files["analytic.csv"]
            ),
        ),
    ],
)
