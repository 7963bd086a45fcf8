"""The experiment registry: one declaration drives CLI, goldens, smoke.

These tests pin the *derivation*, not any experiment's numbers: the CLI
runs exactly the preset the golden surface snapshots, a failed
expectation reaches every exit code, and the subcommands the registry
replaced are gone.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import cli
from repro.experiments.common import PaperExpectation
from repro.experiments.registry import BY_NAME, EXPERIMENTS
from repro.goldens.surfaces import surface_names
from repro.goldens.verify import update_goldens

#: ``chaos`` and ``campaign`` without flags run their flag defaults (the
#: mixed matrix, 25 trials); ``--smoke`` is what selects their preset.
PRESET_FLAG = {"chaos": ["--smoke"], "campaign": ["--smoke"]}


class _Ran(Exception):
    """Raised by the spy so no experiment actually runs."""


def _spy_on(monkeypatch, name):
    """Swap the subcommand's experiment for one whose run records kwargs."""
    calls = []

    def spy(**params):
        calls.append(params)
        raise _Ran

    real_parser = cli._add_experiment_parser

    def add_parser(sub, exp):
        if exp.name == name:
            exp = dataclasses.replace(exp, run=spy)
        return real_parser(sub, exp)

    monkeypatch.setattr(cli, "_add_experiment_parser", add_parser)
    return calls


@pytest.fixture
def no_repro_env(monkeypatch):
    for key in ("REPRO_FULL", "REPRO_JOBS"):
        monkeypatch.delenv(key, raising=False)


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
class TestCliRunsThePreset:
    """CLI path == golden path: both call ``run(**quick)``."""

    def test_bare_command_runs_quick(self, exp, monkeypatch, no_repro_env):
        calls = _spy_on(monkeypatch, exp.name)
        with pytest.raises(_Ran):
            cli.main([exp.name, *PRESET_FLAG.get(exp.name, [])])
        assert calls == [dict(exp.quick)]

    def test_full_flag_runs_full(self, exp, monkeypatch, no_repro_env):
        if exp.full is None:
            with pytest.raises(SystemExit) as exit_info:
                cli.main([exp.name, "--full"])
            assert exit_info.value.code == 2
            return
        calls = _spy_on(monkeypatch, exp.name)
        with pytest.raises(_Ran):
            cli.main([exp.name, "--full"])
        assert calls == [dict(exp.full)]


class TestFlagOverrides:
    def test_flags_override_only_their_parameter(self, monkeypatch, no_repro_env):
        calls = _spy_on(monkeypatch, "figure2")
        with pytest.raises(_Ran):
            cli.main(["figure2", "--tasks", "32", "--jobs", "2"])
        expected = dict(BY_NAME["figure2"].quick, total_tasks=32, jobs=2)
        assert calls == [expected]

    def test_switch_and_zero_valued_flags(self, monkeypatch, no_repro_env):
        calls = _spy_on(monkeypatch, "rootshard")
        with pytest.raises(_Ran):
            cli.main(["rootshard", "--no-rebalance", "--fanout", "0"])
        assert calls[0]["rebalance"] is False
        assert calls[0]["fanout"] is None


def _failing(exp):
    """``exp`` with one expectation forced false and a free run."""
    return dataclasses.replace(
        exp,
        expectations=lambda files: [PaperExpectation("forced false", False)],
    )


class TestReproduce:
    def test_failed_expectation_exits_one_and_names_it(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.BY_NAME, "figure7", _failing(BY_NAME["figure7"]))
        assert cli.main(["reproduce", "figure1", "figure7"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] forced false" in out
        digest = out.strip().splitlines()[-1]
        assert "1 expectation(s) FAILED in: figure7" in digest

    def test_named_experiments_run_in_order(self, capsys):
        assert cli.main(["reproduce", "figure7", "figure1"]) == 0
        out = capsys.readouterr().out
        assert out.index("FIGURE 7") < out.index("FIGURE 1")
        assert "every paper expectation held" in out

    def test_unknown_name_is_a_usage_error(self, capsys):
        assert cli.main(["reproduce", "figure1", "figure9"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment(s) figure9" in captured.err
        assert captured.out == ""  # nothing ran


class TestExitCodes:
    def test_failed_expectation_is_exit_one(self, monkeypatch, capsys):
        real_parser = cli._add_experiment_parser
        monkeypatch.setattr(
            cli,
            "_add_experiment_parser",
            lambda sub, exp: real_parser(
                sub, _failing(exp) if exp.name == "ablation" else exp
            ),
        )
        # At the parent `repro ablations` returned 0 whatever it found.
        assert cli.main(["ablation"]) == 1
        assert "[FAIL] forced false" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        ["shard-smoke", "sharded-root-smoke", "ablations", "shard_smoke"],
    )
    def test_replaced_subcommands_are_usage_errors(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestGoldensFollowTheRegistry:
    def test_every_experiment_is_a_surface(self):
        assert set(surface_names()) == {exp.name for exp in EXPERIMENTS}

    def test_update_refuses_a_run_whose_expectation_fails(
        self, monkeypatch, tmp_path
    ):
        from repro.goldens import surfaces

        broken = surfaces._experiment_surface(_failing(BY_NAME["figure1"]))
        monkeypatch.setitem(surfaces.SURFACES_BY_NAME, "figure1", broken)
        lines = []
        code = update_goldens(
            goldens_dir=tmp_path,
            only=("figure1",),
            out=lines.append,
            environ={"REPRO_REGEN_GOLDENS": "1"},
        )
        assert code == 1
        assert any("refusing to snapshot" in line for line in lines)
        assert not any(tmp_path.iterdir())  # nothing was written
