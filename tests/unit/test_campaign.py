"""Unit tests for the campaign engine: generator, ddmin, schema, oracles."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError, FaultError
from repro.faults.campaign import (
    CRASH_FREE_PROFILES,
    PROFILES,
    CampaignConfig,
    campaign_trials,
    ddmin,
    generate_plan,
    recovery_unit,
    smoke_config,
)
from repro.faults.plan import CRASH, DELAY, FaultPlan, crash
from repro.metrics.export import CHAOS_RUN_FIELDS, chaos_run_row

HORIZON = 400.0 * recovery_unit(6)


class TestGeneratePlan:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_deterministic_and_valid(self, profile, seed):
        first = generate_plan(seed, 6, HORIZON, profile)
        again = generate_plan(seed, 6, HORIZON, profile)
        assert first.events == again.events
        assert first.seed == seed
        first.validate(6)  # must not raise

    def test_distinct_seeds_diverge(self):
        plans = {generate_plan(s, 6, HORIZON, "mixed").events for s in range(8)}
        assert len(plans) > 1

    def test_times_stay_inside_horizon(self):
        for profile in PROFILES:
            for seed in range(6):
                for event in generate_plan(seed, 6, HORIZON, profile).events:
                    assert 0.0 <= event.time <= HORIZON
                    if event.until is not None:
                        assert event.time < event.until <= HORIZON

    def test_wire_profile_is_crash_free(self):
        for seed in range(10):
            plan = generate_plan(seed, 6, HORIZON, "wire")
            assert plan.events
            assert all(e.kind == DELAY for e in plan.events)

    def test_churn_pairs_crash_with_restart_and_spares_root(self):
        for seed in range(10):
            plan = generate_plan(seed, 6, HORIZON, "churn")
            crashes = [e for e in plan.events if e.kind == CRASH]
            assert crashes
            for event in crashes:
                assert event.node != 0  # the group root never plain-crashes
            restarts = [e for e in plan.events if e.kind == "restart"]
            assert sorted(e.node for e in crashes) == sorted(
                e.node for e in restarts
            )

    def test_splitbrain_islands_are_proper_minorities(self):
        for seed in range(10):
            plan = generate_plan(seed, 6, HORIZON, "splitbrain")
            islands = [e.nodes for e in plan.events if e.kind == "partition"]
            assert islands
            for island in islands:
                assert 0 not in island
                assert len(island) <= 2  # (n - 1) // 2 for n = 6

    def test_rootstorm_targets_the_sequencer(self):
        seen_root_kill = False
        for seed in range(10):
            plan = generate_plan(seed, 6, HORIZON, "rootstorm")
            kills = [e for e in plan.events if e.kind == CRASH]
            assert kills
            seen_root_kill |= any(e.root_of is not None for e in kills)
        assert seen_root_kill

    def test_rejects_bad_arguments(self):
        with pytest.raises(FaultError, match="profile"):
            generate_plan(0, 6, HORIZON, "bogus")
        with pytest.raises(FaultError, match="nodes"):
            generate_plan(0, 2, HORIZON)
        with pytest.raises(FaultError, match="horizon"):
            generate_plan(0, 6, 0.0)

    def test_exposed_as_faultplan_classmethod(self):
        direct = generate_plan(3, 6, HORIZON, "wire")
        via_class = FaultPlan.generate(3, 6, HORIZON, "wire")
        assert direct.events == via_class.events

    def test_payload_round_trips_through_json(self):
        plan = generate_plan(11, 6, HORIZON, "splitbrain")
        payload = json.loads(json.dumps(plan.to_payload()))
        rebuilt = FaultPlan.from_payload(payload)
        assert rebuilt.events == plan.events
        assert rebuilt.seed == plan.seed

    def test_malformed_payload_is_a_fault_error(self):
        with pytest.raises(FaultError):
            FaultPlan.from_payload({"seed": 0, "events": [{"bogus": 1}]})


class TestCampaignTrials:
    def test_enumeration_is_deterministic_and_rotates(self):
        config = CampaignConfig(trials=8)
        first = campaign_trials(config)
        again = campaign_trials(config)
        assert len(first) == 8
        assert [t.seed for t in first] == [t.seed for t in again]
        assert {t.topology for t in first} == {"mesh_torus", "ring"}

    def test_rejects_non_gwc_systems(self):
        with pytest.raises(FaultError, match="recovery stack"):
            campaign_trials(CampaignConfig(systems=("release",)))

    def test_task_queue_restricted_to_crash_free_profiles(self):
        trials = campaign_trials(
            CampaignConfig(trials=6, workload="task_queue", profile="all")
        )
        for trial in trials:
            assert trial.profile in CRASH_FREE_PROFILES
        with pytest.raises(FaultError, match="crash-free"):
            campaign_trials(
                CampaignConfig(workload="task_queue", profile="churn")
            )

    def test_smoke_config_spans_structural_profiles(self):
        trials = campaign_trials(smoke_config())
        # Six trials over the profile x system rotation cover the three
        # structural profiles on both systems.
        assert {t.profile for t in trials} == {
            "churn",
            "splitbrain",
            "rootstorm",
        }


class TestDdmin:
    def _events(self, n):
        return tuple(crash(float(i + 1), node=1) for i in range(n))

    def test_reduces_to_the_failing_core(self):
        events = self._events(8)
        core = {events[2], events[5]}

        def fails(candidate):
            return core <= set(candidate)

        result = ddmin(events, fails)
        assert set(result) == core

    def test_result_is_one_minimal(self):
        events = self._events(10)
        core = {events[1], events[4], events[7]}

        def fails(candidate):
            return core <= set(candidate)

        result = ddmin(events, fails)
        assert set(result) == core
        for i in range(len(result)):
            assert not fails(result[:i] + result[i + 1:])

    def test_empty_plan_failure_returns_empty(self):
        assert ddmin(self._events(5), lambda _c: True) == ()

    def test_single_item_core(self):
        events = self._events(7)
        result = ddmin(events, lambda c: events[3] in c)
        assert result == (events[3],)


class TestChaosRunRow:
    def _values(self):
        values = dict.fromkeys(CHAOS_RUN_FIELDS, 0)
        values.update(system="gwc", workload="counter", scenario="s", stall="")
        return values

    def test_complete_values_keep_field_order(self):
        row = chaos_run_row(self._values())
        assert tuple(row) == CHAOS_RUN_FIELDS

    def test_prefix_prepends_and_preserves_schema(self):
        row = chaos_run_row(self._values(), prefix={"trial": 3})
        assert tuple(row) == ("trial",) + CHAOS_RUN_FIELDS
        assert row["trial"] == 3

    def test_missing_field_is_a_hard_error(self):
        values = self._values()
        del values["failovers"]
        with pytest.raises(ExperimentError, match="failovers"):
            chaos_run_row(values)

    def test_unknown_field_is_a_hard_error(self):
        values = self._values()
        values["bogus"] = 1
        with pytest.raises(ExperimentError, match="bogus"):
            chaos_run_row(values)

    def test_prefix_collision_is_a_hard_error(self):
        with pytest.raises(ExperimentError, match="seed"):
            chaos_run_row(self._values(), prefix={"seed": 9})
