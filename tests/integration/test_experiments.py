"""Quick-scale runs of the paper-figure experiments: every qualitative
claim (the *shape* of each figure) must hold even at reduced sizes."""

from __future__ import annotations

import pytest

from repro.experiments import figure1, figure2, figure8
from repro.experiments.ablation import (
    run_echo_blocking_ablation,
    run_force_modes,
    run_lock_protocol_shootout,
    run_threshold_sweep,
)


@pytest.fixture(scope="module")
def fig1_rows():
    return figure1.run_figure1()


@pytest.fixture(scope="module")
def fig2_rows():
    return figure2.run_figure2(sizes=(3, 5, 9), total_tasks=96)


@pytest.fixture(scope="module")
def fig8_rows():
    return figure8.run_figure8(sizes=(2, 4, 8), data_size=64)


class TestFigure1:
    def test_expectations_hold(self, fig1_rows):
        checks = figure1.expectations(fig1_rows)
        failing = [str(c) for c in checks if not c.holds]
        assert not failing, failing

    def test_render_produces_table(self, fig1_rows):
        text = figure1.render(fig1_rows)
        assert "Figure 1" in text
        assert "gwc" in text

    def test_gwc_fastest_release_slowest(self, fig1_rows):
        by_system = {row.system: row.completion_time for row in fig1_rows}
        assert by_system["gwc"] < by_system["entry"] < by_system["release"]


    def test_ordering_is_robust_to_section_length(self):
        rows = figure1.run_figure1(update_time=12e-6, cpu2_delay=25e-6)
        by_system = {row.system: row.completion_time for row in rows}
        assert by_system["gwc"] < by_system["entry"] < by_system["release"]
        assert by_system["gwc_optimistic"] <= by_system["gwc"] * 1.001


class TestFigure2:
    def test_expectations_hold(self, fig2_rows):
        checks = figure2.expectations(fig2_rows)
        failing = [str(c) for c in checks if not c.holds]
        assert not failing, failing

    def test_speedup_monotone_in_small_range(self, fig2_rows):
        gwc = [row.gwc for row in fig2_rows]
        assert gwc == sorted(gwc)

    def test_near_ideal_at_small_sizes(self, fig2_rows):
        for row in fig2_rows:
            assert row.gwc > 0.9 * row.max_speedup

    def test_render(self, fig2_rows):
        text = figure2.render(fig2_rows)
        assert "task management" in text


class TestFigure8:
    def test_expectations_hold(self, fig8_rows):
        checks = figure8.expectations(fig8_rows)
        failing = [str(c) for c in checks if not c.holds]
        assert not failing, failing

    def test_ideal_power_is_189(self, fig8_rows):
        # Short quick-scale runs lose a little to pipeline fill/drain;
        # the full-scale sweep sits within 0.01 of 1.889.
        for row in fig8_rows:
            assert row.max_power == pytest.approx(1.889, abs=0.05)

    def test_render(self, fig8_rows):
        text = figure8.render(fig8_rows)
        assert "mutex methods" in text


class TestAblations:
    def test_threshold_extremes_behave(self):
        # At moderate contention the lock often *looks* free locally, so
        # the history threshold is what decides the path.  (Under very
        # heavy contention the local-copy check dominates and the
        # threshold is irrelevant — also the paper's design.)
        rows = run_threshold_sweep(
            thresholds=(0.0, 1.0),
            think_times=(15e-6,),
            n_nodes=6,
            increments_per_node=16,
        )
        by_threshold = {row.threshold: row for row in rows}
        # Threshold 0 suppresses optimism once any usage has been seen;
        # threshold 1 never suppresses.
        assert by_threshold[1.0].attempts > by_threshold[0.0].attempts
        assert by_threshold[0.0].regular > by_threshold[1.0].regular
        # Allowing optimism pays off here: more sections overlap their
        # lock round trips.
        assert by_threshold[1.0].elapsed <= by_threshold[0.0].elapsed

    def test_light_contention_favors_optimism(self):
        rows = run_threshold_sweep(
            thresholds=(0.3,),
            think_times=(100e-6,),
            n_nodes=4,
            increments_per_node=6,
        )
        row = rows[0]
        assert row.successes > 0
        assert row.rollbacks <= row.successes

    def test_shootout_all_correct(self):
        rows = run_lock_protocol_shootout(n_nodes=5, increments_per_node=4)
        assert all(row.correct for row in rows)
        assert {row.system for row in rows} == {
            "gwc",
            "gwc_optimistic",
            "entry",
            "release",
        }

    def test_echo_blocking_ablation(self):
        with_filter, without_filter = run_echo_blocking_ablation()
        assert with_filter.extra["correct"]
        assert not without_filter.extra["correct"]

    def test_force_modes_all_correct_and_adaptive_competitive(self):
        results = run_force_modes(n_nodes=4, increments_per_node=8)
        assert set(results) == {"adaptive", "optimistic", "regular"}
        elapsed = {mode: r.elapsed for mode, r in results.items()}
        # The adaptive history should be within 25% of the better of the
        # two fixed policies.
        best_fixed = min(elapsed["optimistic"], elapsed["regular"])
        assert elapsed["adaptive"] <= best_fixed * 1.25
