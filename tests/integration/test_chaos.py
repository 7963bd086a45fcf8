"""Integration tests for the fault-injection subsystem and chaos harness.

The acceptance scenario: crash the lock holder mid-critical-section.
With the recovery stack armed the run must complete — the lease
reclaims the dead holder's lock, a waiter is granted, the
mutual-exclusion and RMW-chain invariants hold, and a recovery time is
reported.  With recovery disabled the very same schedule must end in
the watchdog's StallError instead of a silent hang.
"""

from __future__ import annotations

import pytest

from repro.errors import FaultError, StallError
from repro.faults.chaos import ChaosConfig, run_chaos


class TestCrashHolderAcceptance:
    @pytest.mark.parametrize("system", ["gwc", "gwc_optimistic"])
    def test_holder_crash_recovers_and_invariants_hold(self, system):
        result = run_chaos(
            ChaosConfig(system=system, scenario="crash_holder", seed=0)
        )
        assert result.ok, (result.stall, result.invariant_errors)
        summary = result.fault_summary
        assert summary["crashes"] == 1
        assert summary["lock_reclaims"] >= 1
        assert len(result.recovery_times) >= 1
        assert all(t > 0.0 for t in result.recovery_times)
        # The crashed node loses its unfinished ops; everyone else
        # finishes, and every committed increment is in the RMW chain.
        assert result.final_counter == result.chain_length
        assert result.converged
        assert not result.invariant_errors

    def test_recovery_disabled_ends_in_diagnosed_stall(self):
        with pytest.raises(StallError, match="blocked"):
            run_chaos(
                ChaosConfig(
                    scenario="crash_holder",
                    seed=0,
                    recovery=False,
                    raise_on_stall=True,
                )
            )

    def test_recovery_disabled_stall_recorded_in_result(self):
        result = run_chaos(
            ChaosConfig(scenario="crash_holder", seed=0, recovery=False)
        )
        assert not result.ok
        assert result.stall is not None
        assert "blocked" in result.stall
        # Partial progress happened before the wedge.
        assert result.chain_length > 0


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        config = ChaosConfig(scenario="crash_holder", seed=3)
        first = run_chaos(config).fingerprint()
        second = run_chaos(config).fingerprint()
        assert first == second

    def test_different_seeds_diverge(self):
        base = run_chaos(ChaosConfig(scenario="delay", seed=0)).fingerprint()
        other = run_chaos(ChaosConfig(scenario="delay", seed=1)).fingerprint()
        assert base != other

    def test_probabilistic_faults_are_seed_stable(self):
        config = ChaosConfig(scenario="duplicate", seed=5)
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.fault_summary == second.fault_summary
        assert first.fault_summary["fault_duplicated"] > 0


class TestScenarios:
    def test_churn_restarted_node_finishes_its_ops(self):
        result = run_chaos(ChaosConfig(scenario="churn", seed=0))
        assert result.ok, (result.stall, result.invariant_errors)
        assert result.fault_summary["crashes"] == 1
        assert result.fault_summary["restarts"] == 1
        # Nobody's ops are lost: the respawned worker resumes from its
        # crash-consistent _done counter.
        config = result.config
        assert result.final_counter == config.n_nodes * config.ops_per_node

    def test_partition_rides_through_on_timeouts(self):
        result = run_chaos(ChaosConfig(scenario="partition", seed=0))
        assert result.ok, (result.stall, result.invariant_errors)
        assert result.fault_summary["partitions_cut"] == 1
        assert result.fault_summary["partitions_healed"] == 1
        assert result.lock_timeouts > 0
        assert result.lock_retries > 0
        config = result.config
        assert result.final_counter == config.n_nodes * config.ops_per_node

    def test_partition_with_optimistic_regular_path(self):
        # The optimistic runner's regular-path wait must go through the
        # timed client, or islanded requesters hang forever.
        result = run_chaos(
            ChaosConfig(system="gwc_optimistic", scenario="partition", seed=0)
        )
        assert result.ok, (result.stall, result.invariant_errors)
        assert result.lock_retries > 0

    def test_duplicate_apply_stream_absorbed(self):
        result = run_chaos(ChaosConfig(scenario="duplicate", seed=0))
        assert result.ok, (result.stall, result.invariant_errors)
        assert result.fault_summary["fault_duplicated"] > 0

    def test_task_queue_survives_partition(self):
        result = run_chaos(
            ChaosConfig(workload="task_queue", scenario="partition", seed=0)
        )
        assert result.ok, (result.stall, result.invariant_errors)
        config = result.config
        assert result.final_counter == config.ops_per_node * (
            config.n_nodes - 1
        )

    @pytest.mark.parametrize("system", ["release", "sequential", "entry"])
    def test_delay_scenario_works_for_every_system(self, system):
        result = run_chaos(
            ChaosConfig(system=system, scenario="delay", seed=0)
        )
        assert result.ok, (result.stall, result.invariant_errors)
        assert result.fault_summary["fault_delayed"] > 0


class TestCompatibilityChecks:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(FaultError, match="unknown scenario"):
            run_chaos(ChaosConfig(scenario="meteor"))

    def test_unknown_workload_rejected(self):
        with pytest.raises(FaultError, match="unknown workload"):
            run_chaos(ChaosConfig(workload="raytracer"))

    @pytest.mark.parametrize("scenario", ["crash_holder", "partition"])
    def test_recovery_scenarios_need_gwc_family(self, scenario):
        with pytest.raises(FaultError, match="recovery"):
            run_chaos(ChaosConfig(system="release", scenario=scenario))

    def test_crash_scenarios_need_counter_workload(self):
        with pytest.raises(FaultError, match="counter workload"):
            run_chaos(
                ChaosConfig(workload="task_queue", scenario="crash_holder")
            )


class TestShardedRootChaos:
    """Chaos scenarios against a root-sharded group.

    With ``roots > 1`` the counter group becomes a sibling family whose
    single lock unit hash-lands on one partition; recovery, failover,
    and the armed oracles must all keep working, and the run row's
    per-root load columns must carry one entry per partition.
    """

    @pytest.mark.parametrize("scenario", ["crash_holder", "duplicate"])
    def test_scenarios_survive_sharded_roots(self, scenario):
        result = run_chaos(
            ChaosConfig(scenario=scenario, roots=2, oracles=True, seed=3)
        )
        assert result.ok, (result.stall, result.invariant_errors)
        assert len(result.root_loads) == 2
        # The one lock unit lives on exactly one partition; the other
        # root sequences nothing for this workload.
        assert sum(result.root_loads) > 0
        assert min(result.root_loads) == 0

    def test_crash_root_fails_over_the_owning_sibling(self):
        """``crash(root_of=...)`` targets whichever sibling root holds
        real lock state, so failover runs against the sharded family."""
        result = run_chaos(
            ChaosConfig(scenario="crash_root", roots=2, oracles=True, seed=5)
        )
        assert result.ok, (result.stall, result.invariant_errors)
        assert result.fault_summary["failovers"] >= 1
        assert len(result.root_loads) == 2

    def test_csv_row_surfaces_per_root_load(self):
        from repro.faults.chaos import chaos_csv_row

        result = run_chaos(ChaosConfig(scenario="delay", roots=3, seed=1))
        assert result.ok
        row = chaos_csv_row(result)
        assert row["root_count"] == 3
        assert row["root_load_max"] == max(result.root_loads)
        assert row["root_load_max"] >= row["root_load_mean"] > 0

    def test_single_root_row_keeps_classic_shape(self):
        from repro.faults.chaos import chaos_csv_row

        result = run_chaos(ChaosConfig(scenario="delay", seed=1))
        assert result.ok
        row = chaos_csv_row(result)
        assert row["root_count"] == 1
        assert row["root_load_max"] == row["root_load_mean"] > 0
