"""Integration tests for the chaos-campaign engine.

The acceptance scenario (docs/FAULTS.md §5): arm the known-bad lease
configuration (`broken_lease`) under a crash-free generated plan.  The
online single-writer oracle must halt the run at the second concurrent
writer's commit, the minimizer must shrink the failing plan to <= 5
events while reproducing the same signature, and the written repro
bundle must replay to the identical failure.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.errors import FaultError
from repro.faults.campaign import (
    CampaignConfig,
    ChaosConfig,
    failure_signature,
    generate_plan,
    minimize_failure,
    recovery_unit,
    replay_bundle,
    run_campaign,
    smoke_config,
)
from repro.faults.chaos import run_chaos
from repro.faults.plan import FaultPlan, crash, delay, duplicate
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
        # The bundle is a complete manifested run...
        assert outcome.bundle_path is not None
        bundle = tmp_path / "trial-000"
        assert str(bundle) == outcome.bundle_path
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert {"config.json", "plan.json", "oracle.json"} <= set(
            manifest["files"]
        )
        oracle = json.loads((bundle / "oracle.json").read_text())
        assert oracle["signature"] == ["oracle", "single_writer"]
        assert oracle["evidence"]
        # ...and replaying it reproduces the identical failure.
        replayed = replay_bundle(bundle)
        assert failure_signature(replayed) == outcome.signature

    def test_unreadable_bundle_is_a_fault_error(self, tmp_path):
        with pytest.raises(FaultError, match="unreadable"):
            replay_bundle(tmp_path / "missing")


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
