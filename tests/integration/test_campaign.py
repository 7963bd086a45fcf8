"""Integration tests for the chaos-campaign engine.

The acceptance scenario (docs/FAULTS.md §5): arm the known-bad lease
configuration (`broken_lease`) under a crash-free generated plan.  The
online single-writer oracle must halt the run at the second concurrent
writer's commit, the minimizer must shrink the failing plan to <= 5
events while reproducing the same signature, and the written repro
bundle must replay to the identical failure.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro import cli
from repro.errors import FaultError
from repro.experiments.chaos import CAMPAIGN
from repro.faults import campaign as campaign_mod
from repro.faults.campaign import (
    CampaignConfig,
    ChaosConfig,
    TrialOutcome,
    _config_payload,
    campaign_trials,
    failure_signature,
    generate_plan,
    minimize_failure,
    recovery_unit,
    replay_bundle,
    run_campaign,
    smoke_config,
    write_bundle,
)
from repro.faults.chaos import run_chaos
from repro.faults.plan import FaultPlan, crash, delay, duplicate
from repro.params import PAPER_PARAMS
from repro.workloads import counter as counter_wl

UNIT = recovery_unit(6)


class TestCampaignGreenPath:
    def test_smoke_campaign_is_green_and_deterministic(self):
        first = run_campaign(smoke_config())
        again = run_campaign(smoke_config())
        assert first.ok
        assert len(first.outcomes) == 6
        assert first.rows() == again.rows()
        # Every row carries the shared schema plus the trial prefix.
        for row in first.rows():
            assert row["ok"]
            assert list(row)[:4] == ["trial", "kind", "profile", "topology"]

    @pytest.mark.slow
    def test_default_campaign_is_green_and_deterministic(self):
        config = CampaignConfig()  # trials=25, seed=7, mixed profile
        first = run_campaign(config)
        assert first.ok, [o.detail for o in first.failures()]
        assert first.rows() == run_campaign(config).rows()


class TestBrokenLeaseAcceptance:
    def _known_bad(self) -> ChaosConfig:
        plan = generate_plan(7, 6, 400.0 * UNIT, "wire")
        return ChaosConfig(
            system="gwc",
            workload="counter",
            scenario="campaign:wire",
            n_nodes=6,
            ops_per_node=6,
            seed=7,
            plan=plan,
            topology="mesh_torus",
            oracles=True,
            broken_lease=True,
            lease_duration=1.0 * UNIT,
            section_time=10e-6,
        )

    def test_oracle_halts_the_run_with_evidence(self):
        result = run_chaos(self._known_bad())
        assert result.oracle == "single_writer"
        assert result.oracle_evidence
        assert not result.ok
        assert failure_signature(result) == ("oracle", "single_writer")

    def test_minimizer_shrinks_to_at_most_five_events(self):
        config = self._known_bad()
        minimized = minimize_failure(config, ("oracle", "single_writer"))
        assert len(minimized.plan.events) <= 5
        assert minimized.n_nodes <= config.n_nodes
        assert minimized.probes >= 1

    def test_campaign_minimizes_and_bundles_then_replay_reproduces(
        self, tmp_path
    ):
        config = CampaignConfig(
            trials=1,
            seed=7,
            profile="wire",
            systems=("gwc",),
            topologies=("mesh_torus",),
            broken_lease=True,
            lease_units=1.0,
            section_time_s=10e-6,
            bundle_dir=str(tmp_path),
        )
        campaign = run_campaign(config)
        assert not campaign.ok
        outcome = campaign.failures()[0]
        assert outcome.signature == ("oracle", "single_writer")
        assert outcome.minimized is not None
        assert len(outcome.minimized.plan.events) <= 5
        assert outcome.row["minimized_events"] == len(
            outcome.minimized.plan.events
        )
        # The bundle is exactly its three files, swapped in whole...
        assert outcome.bundle_path is not None
        bundle = tmp_path / "trial-000"
        assert str(bundle) == outcome.bundle_path
        assert [p.name for p in tmp_path.iterdir()] == ["trial-000"]
        assert {p.name for p in bundle.iterdir()} == {
            "config.json",
            "plan.json",
            "oracle.json",
        }
        oracle = json.loads((bundle / "oracle.json").read_text())
        assert oracle["signature"] == ["oracle", "single_writer"]
        assert oracle["evidence"]
        # ...and replaying it reproduces the identical failure.
        replayed = replay_bundle(bundle)
        assert failure_signature(replayed) == outcome.signature

    def test_unreadable_bundle_is_a_fault_error(self, tmp_path):
        with pytest.raises(FaultError, match="unreadable"):
            replay_bundle(tmp_path / "missing")

    @staticmethod
    def _bundle(tmp_path, config):
        (tmp_path / "config.json").write_text(json.dumps(config))
        (tmp_path / "plan.json").write_text(
            json.dumps(FaultPlan([], seed=0).to_payload())
        )
        return tmp_path

    @pytest.mark.parametrize("config", [[], {}, {"system": "gwc"}])
    def test_config_without_chaos_fields_is_a_fault_error(self, tmp_path, config):
        """An empty or partial config must not replay the default run."""
        with pytest.raises(FaultError, match="malformed repro-bundle config"):
            replay_bundle(self._bundle(tmp_path, config))

    def test_unknown_config_or_params_field_is_a_fault_error(self, tmp_path):
        config = _config_payload(ChaosConfig(system="gwc"))
        with pytest.raises(FaultError, match=r"unknown \['speed'\]"):
            replay_bundle(self._bundle(tmp_path, {**config, "speed": 2}))
        config["params"] = {"speed": 2}
        with pytest.raises(FaultError, match="speed"):
            replay_bundle(self._bundle(tmp_path, config))
        # A bundle written while MachineParams still had write_burst.
        config["params"] = {**dataclasses.asdict(PAPER_PARAMS), "write_burst": 4}
        with pytest.raises(FaultError, match="write_burst"):
            replay_bundle(self._bundle(tmp_path, config))


class TestLocalMinimality:
    def test_minimized_plan_keeps_only_the_root_kill(self):
        # Root kill without failover stalls; the surrounding wire noise
        # is irrelevant and must be shaved off, but the kill itself must
        # survive minimization (the plan is locally minimal, not empty).
        events = (
            delay(2.0 * UNIT, extra=1.5 * UNIT, until=60.0 * UNIT,
                  probability=1.0, preserve_fifo=True),
            crash(12.0 * UNIT, root_of=counter_wl.GROUP),
            duplicate(5.0 * UNIT, until=80.0 * UNIT, probability=0.3),
        )
        config = ChaosConfig(
            system="gwc",
            scenario="campaign:rootstorm",
            n_nodes=6,
            ops_per_node=6,
            seed=3,
            plan=FaultPlan(events, seed=3),
            failover=False,
            topology="mesh_torus",
            oracles=True,
            # Tight budget, as run_chaos uses for the crash_root negative
            # control: the watchdog must flag the stall before the lock
            # retry budget drains into LockTimeoutError.
            max_sim_time=1000.0 * UNIT,
        )
        result = run_chaos(config)
        assert failure_signature(result) == ("stall",)
        minimized = minimize_failure(config, ("stall",))
        assert len(minimized.plan.events) == 1
        assert minimized.plan.events[0].root_of == counter_wl.GROUP
        # 1-minimality: the empty plan does not stall.
        clean = run_chaos(
            ChaosConfig(
                system="gwc",
                scenario="campaign:rootstorm",
                n_nodes=minimized.n_nodes,
                ops_per_node=6,
                seed=3,
                plan=FaultPlan((), seed=3),
                failover=False,
                topology="mesh_torus",
                oracles=True,
                max_sim_time=1000.0 * UNIT,
            )
        )
        assert failure_signature(clean) is None

    def test_minimize_rejects_a_passing_config(self):
        config = ChaosConfig(
            system="gwc",
            scenario="campaign:wire",
            seed=0,
            plan=FaultPlan((), seed=0),
            oracles=True,
        )
        with pytest.raises(FaultError, match="does not reproduce"):
            minimize_failure(config, ("stall",))


class TestMinimizerBudget:
    """An exhausted probe budget is reported, never silent.

    ``run_chaos`` / ``failure_signature`` are replaced by a predicate:
    a plan "fails" iff it still holds both NEEDED events, so no real
    failing run is needed.
    """

    EVENTS = tuple(
        duplicate(t * UNIT, until=(t + 1) * UNIT, probability=0.5)
        for t in range(1, 7)
    )
    NEEDED = {EVENTS[1], EVENTS[4]}

    @pytest.fixture
    def probes(self, monkeypatch):
        seen = []

        def fake_run(config):
            seen.append(config.plan.events)
            return config

        monkeypatch.setattr(campaign_mod, "run_chaos", fake_run)
        monkeypatch.setattr(
            campaign_mod,
            "failure_signature",
            lambda config: (
                ("stall",) if self.NEEDED <= set(config.plan.events) else None
            ),
        )
        return seen

    def _config(self):
        return ChaosConfig(
            system="gwc",
            scenario="campaign:wire",
            seed=0,
            plan=FaultPlan(self.EVENTS, seed=0),
            oracles=True,
        )

    def test_ample_budget_verifies_and_is_not_exhausted(self, probes):
        minimized = minimize_failure(self._config(), ("stall",), probe_budget=400)
        assert set(minimized.plan.events) == self.NEEDED
        assert not minimized.exhausted
        assert minimized.probes == len(probes) < 400

    def test_exhausted_budget_is_recorded(self, probes):
        minimized = minimize_failure(self._config(), ("stall",), probe_budget=3)
        assert minimized.exhausted
        assert minimized.probes == len(probes) == 3
        # Every accepted reduction was probed: the plan still fails.
        assert self.NEEDED <= set(minimized.plan.events)
        assert len(minimized.plan.events) > len(self.NEEDED)

    def test_budget_below_one_is_rejected_before_any_probe(self, probes):
        with pytest.raises(FaultError, match="probe budget >= 1"):
            minimize_failure(self._config(), ("stall",), probe_budget=0)
        assert probes == []
        with pytest.raises(FaultError, match="probe budget >= 1"):
            CampaignConfig(probe_budget=0).validate()

    def test_exhaustion_reaches_bundle_table_and_exit_code(self, probes, tmp_path):
        minimized = minimize_failure(self._config(), ("stall",), probe_budget=3)
        trial = campaign_trials(smoke_config())[0]
        result = SimpleNamespace(
            oracle=None, stall="stalled", invariant_errors=(), oracle_evidence=()
        )
        oracle = json.loads(
            (write_bundle(tmp_path, trial, minimized, result) / "oracle.json")
            .read_text()
        )
        assert oracle["budget_exhausted"] is True
        files = {
            "campaign.csv": [
                TrialOutcome(
                    trial=trial, ok=False, signature=("stall",),
                    detail="stalled", row={}, minimized=minimized,
                )
            ]
        }
        assert "probe budget exhausted" in CAMPAIGN.render(files)
        budget = [
            check for check in CAMPAIGN.expectations(files)
            if "probe budget" in check.claim
        ]
        assert [check.holds for check in budget] == [False]


class TestCampaignCli:
    def test_smoke_exits_zero_and_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "campaign.csv"
        assert cli.main(["campaign", "--smoke", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign: 6/6 trial(s) ok" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("trial,kind,profile,topology")

    def test_usage_errors_exit_two(self, capsys):
        assert cli.main(["campaign", "--profile", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown profile" in err and "known:" in err
        assert cli.main(["campaign", "--workload", "bogus"]) == 2
        assert cli.main(["campaign", "--systems", "gwc,bogus"]) == 2
        assert cli.main(["campaign", "--systems", "release"]) == 2
        assert "recovery stack" in capsys.readouterr().err
        assert cli.main(["campaign", "--trials", "0"]) == 2
        assert cli.main(["campaign", "--nodes", "2"]) == 2

    def test_chaos_and_campaign_share_validation_wording(self, capsys):
        assert cli.main(["chaos", "--workload", "bogus"]) == 2
        chaos_err = capsys.readouterr().err
        assert cli.main(["campaign", "--workload", "bogus"]) == 2
        campaign_err = capsys.readouterr().err
        assert "unknown workload" in chaos_err
        assert "unknown workload" in campaign_err
