"""Integration: the continuous-verify guardrail end to end.

Covers the acceptance bar of the goldens work:

* ``update-goldens`` -> ``verify-goldens`` round-trips clean (exit 0);
* a single-byte mutation in a golden-covered artifact fails the gate
  (exit 1) with a per-file and per-field diff report;
* chaos / failover artifact generation is byte-identical
  across two back-to-back runs per seed;
* SIGKILL mid-run leaves either a complete manifested artifact set or
  nothing detectable as valid — and the next run cleans the partials;
* exit codes are uniform: 0 clean, 1 drift/stall, 2 usage.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro import cli
from repro.experiments.registry import EXPERIMENTS
from repro.goldens.manifest import MANIFEST_NAME, manifest_errors
from repro.goldens.surfaces import SURFACES_BY_NAME, surface_names
from repro.goldens.verify import update_goldens, verify_goldens
from repro.goldens.writer import RunWriter

#: Fast surfaces used for the round-trip flow tests.
FAST = ("figure1", "replication", "grouping")

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
ENV = {"REPRO_REGEN_GOLDENS": "1"}


def _update(tmp_path, only=FAST):
    code = update_goldens(
        goldens_dir=tmp_path, only=only, out=lambda _line: None, environ=ENV
    )
    assert code == 0
    return tmp_path


class TestRoundTrip:
    def test_update_then_verify_is_clean(self, tmp_path):
        _update(tmp_path)
        lines = []
        assert verify_goldens(tmp_path, only=FAST, out=lines.append) == 0
        assert any("3/3 surface(s) clean" in line for line in lines)

    def test_single_byte_mutation_fails_with_field_diff(self, tmp_path):
        _update(tmp_path)
        target = tmp_path / "figure1" / "figure1.json"
        text = target.read_text()
        assert '"final_value": 3' in text
        target.write_text(text.replace('"final_value": 3', '"final_value": 4', 1))
        lines = []
        assert verify_goldens(tmp_path, only=("figure1",), out=lines.append) == 1
        report = "\n".join(lines)
        assert "figure1.json" in report  # per-file
        assert "final_value" in report  # per-field
        assert "golden 4 != current 3" in report

    def test_csv_mutation_reports_row_and_column(self, tmp_path):
        _update(tmp_path, only=("grouping",))
        target = tmp_path / "grouping" / "grouping.csv"
        rows = target.read_text().splitlines()
        cells = rows[1].split(",")
        cells[0] = "999"  # n_nodes of the first data row
        rows[1] = ",".join(cells)
        target.write_text("\n".join(rows) + "\n")
        lines = []
        assert verify_goldens(tmp_path, only=("grouping",), out=lines.append) == 1
        report = "\n".join(lines)
        assert "grouping.csv" in report
        assert "[n_nodes]" in report and "'999'" in report

    def test_truncated_golden_fails(self, tmp_path):
        _update(tmp_path, only=("figure1",))
        target = tmp_path / "figure1" / "figure1.json"
        target.write_text(target.read_text()[:-40])
        assert verify_goldens(tmp_path, only=("figure1",), out=lambda _l: None) == 1

    def test_missing_goldens_is_drift(self, tmp_path):
        lines = []
        assert verify_goldens(tmp_path, only=("figure1",), out=lines.append) == 1
        assert any("MISSING" in line for line in lines)

    def test_update_without_kill_switch_refused(self, tmp_path):
        lines = []
        code = update_goldens(
            goldens_dir=tmp_path, only=FAST, out=lines.append, environ={}
        )
        assert code == 2
        assert not any(tmp_path.iterdir())  # nothing was written
        assert any("REPRO_REGEN_GOLDENS" in line for line in lines)

    def test_unknown_surface_is_usage_error(self, tmp_path):
        assert verify_goldens(tmp_path, only=("nope",), out=lambda _l: None) == 2
        code = update_goldens(
            goldens_dir=tmp_path, only=("nope",), out=lambda _l: None, environ=ENV
        )
        assert code == 2

    def test_update_prints_field_diff_summary_on_change(self, tmp_path):
        _update(tmp_path, only=("figure1",))
        # Tamper, then regenerate: the update must print what moved.
        target = tmp_path / "figure1" / "figure1.json"
        text = target.read_text()
        target.write_text(text.replace('"final_value": 3', '"final_value": 4', 1))
        lines = []
        code = update_goldens(
            goldens_dir=tmp_path,
            only=("figure1",),
            out=lines.append,
            environ=ENV,
        )
        assert code == 0
        report = "\n".join(lines)
        assert "UPDATED" in report and "final_value" in report
        # And the rewritten goldens verify clean again.
        assert verify_goldens(tmp_path, only=("figure1",), out=lambda _l: None) == 0


class TestDeterminism:
    """Back-to-back runs per seed must produce byte-identical artifacts."""

    @pytest.mark.parametrize("name", ["chaos", "failover"])
    def test_surface_byte_identical_across_runs(self, tmp_path, name):
        surface = SURFACES_BY_NAME[name]
        first = RunWriter(tmp_path / "one", name)
        surface.generate(first)
        manifest_one = first.finalize()
        second = RunWriter(tmp_path / "two", name)
        surface.generate(second)
        manifest_two = second.finalize()
        assert set(manifest_one.files) == set(manifest_two.files)
        for file_name in manifest_one.files:
            bytes_one = (tmp_path / "one" / file_name).read_bytes()
            bytes_two = (tmp_path / "two" / file_name).read_bytes()
            assert bytes_one == bytes_two, f"{name}/{file_name} not reproducible"
        assert manifest_errors(tmp_path / "one") == []

    def test_every_surface_is_registered(self):
        assert set(surface_names()) == {exp.name for exp in EXPERIMENTS}


class TestCommittedGoldens:
    """The repo's committed goldens/ tree must verify clean (fast subset).

    CI runs the full gate via ``make verify-goldens``; here we keep
    tier-1 honest with the cheapest surfaces so a semantic change that
    forgets to regenerate goldens fails close to the code.
    """

    def test_committed_goldens_verify_clean(self):
        goldens = REPO_ROOT / "goldens"
        assert goldens.is_dir(), "goldens/ tree missing; run `make goldens`"
        lines = []
        code = verify_goldens(
            goldens, only=("figure1", "replication"), out=lines.append
        )
        assert code == 0, "\n".join(lines)

    def test_committed_manifests_are_internally_consistent(self):
        goldens = REPO_ROOT / "goldens"
        for name in surface_names():
            directory = goldens / name
            assert directory.is_dir(), f"no committed goldens for {name}"
            problems = manifest_errors(directory)
            assert problems == [], f"{name}: {problems}"


class TestSigkillMidRun:
    """SIGKILL mid-run: complete-with-manifest or detectably invalid."""

    SCRIPT = """
import sys, time
from repro.goldens.writer import RunWriter
run = RunWriter(sys.argv[1], surface="killtest")
run.write_json("a.json", {"x": 1})
print("WROTE_A", flush=True)
time.sleep(30)  # SIGKILLed here
run.write_json("b.json", {"y": 2})
run.finalize()
"""

    def test_no_partial_survives_as_valid(self, tmp_path):
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT, str(run_dir)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "WROTE_A"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        # The artifact landed but the run never finalized: the directory
        # must be detectably invalid, never a silently-partial set.
        assert (run_dir / "a.json").is_file()
        assert not (run_dir / MANIFEST_NAME).exists()
        assert manifest_errors(run_dir)
        # The next run detects and cleans the stale partial, then
        # completes into a valid manifested set.
        notes = []
        fresh = RunWriter(run_dir, "killtest", out=notes.append)
        assert fresh.cleaned_stale == ["a.json"]
        assert any("stale partial" in note for note in notes)
        fresh.write_json("a.json", {"x": 1})
        fresh.write_json("b.json", {"y": 2})
        fresh.finalize()
        assert manifest_errors(run_dir) == []


class TestCliExitCodes:
    """0 clean / 1 drift-or-stall / 2 usage, across chaos and goldens."""

    def test_verify_goldens_usage(self):
        assert cli.main(["verify-goldens", "--only", "bogus"]) == 2

    def test_update_goldens_needs_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_REGEN_GOLDENS", raising=False)
        assert (
            cli.main(["update-goldens", "--dir", str(tmp_path), "--only", "figure1"])
            == 2
        )

    def test_verify_goldens_clean_and_drift(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGEN_GOLDENS", "1")
        assert (
            cli.main(["update-goldens", "--dir", str(tmp_path), "--only", "figure1"])
            == 0
        )
        assert (
            cli.main(["verify-goldens", "--dir", str(tmp_path), "--only", "figure1"])
            == 0
        )
        target = tmp_path / "figure1" / "figure1.json"
        payload = json.loads(target.read_text())
        payload["rows"][0]["final_value"] += 1
        target.write_text(json.dumps(payload))
        assert (
            cli.main(["verify-goldens", "--dir", str(tmp_path), "--only", "figure1"])
            == 1
        )

    def test_chaos_usage_errors(self, capsys):
        assert cli.main(["chaos", "--scenario", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert cli.main(["chaos", "--workload", "bogus"]) == 2
        assert cli.main(["chaos", "--systems", "gwc,bogus"]) == 2
        assert (
            cli.main(["chaos", "--scenario", "crash_root", "--systems", "release"])
            == 2
        )
        assert (
            cli.main(
                ["chaos", "--scenario", "crash_holder", "--workload", "task_queue"]
            )
            == 2
        )

    def test_chaos_clean_run_is_zero(self, capsys):
        code = cli.main(
            ["chaos", "--scenario", "delay", "--systems", "release", "--ops", "4"]
        )
        capsys.readouterr()
        assert code == 0

    def test_chaos_stall_is_one(self, capsys):
        # Negative control: crash_root without failover must stall.
        code = cli.main(
            [
                "chaos",
                "--scenario",
                "crash_root",
                "--systems",
                "gwc",
                "--no-failover",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "STALL" in out
