"""Integration: the continuous-verify guardrail end to end.

Covers the acceptance bar of the goldens work:

* ``update-goldens`` -> ``verify-goldens`` round-trips clean (exit 0);
* a truncated, edited, CRLF-converted, stray or missing golden file
  fails the gate (exit 1), naming the file; a byte mismatch also
  prints the per-field diff;
* chaos / failover artifact generation is byte-identical
  across two back-to-back runs per seed;
* SIGKILL mid-write leaves the previous complete set (or no directory)
  plus a ``.tmp-*`` sibling that the orphan check names — never a
  half-written set;
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
from repro.goldens.surfaces import SURFACES, SURFACES_BY_NAME, surface_names
from repro.goldens.verify import orphan_dirs, update_goldens, verify_goldens
from repro.goldens.writer import write_run

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
        assert "figure1.json: bytes differ" in report  # per-file
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
        assert "grouping.csv: bytes differ" in report
        assert "[n_nodes]" in report and "'999'" in report

    def test_truncated_golden_fails(self, tmp_path):
        _update(tmp_path, only=("figure1",))
        target = tmp_path / "figure1" / "figure1.json"
        target.write_text(target.read_text()[:-40])
        lines = []
        assert verify_goldens(tmp_path, only=("figure1",), out=lines.append) == 1
        report = "\n".join(lines)
        assert "figure1.json: bytes differ" in report
        assert "not valid JSON (truncated artifact?)" in report

    def test_crlf_converted_golden_fails(self, tmp_path):
        _update(tmp_path, only=("grouping",))
        target = tmp_path / "grouping" / "grouping.csv"
        target.write_bytes(target.read_bytes().replace(b"\n", b"\r\n"))
        lines = []
        assert verify_goldens(tmp_path, only=("grouping",), out=lines.append) == 1
        report = "\n".join(lines)
        assert "grouping.csv: bytes differ" in report
        assert "no field differs: line endings or spacing only" in report

    @pytest.mark.parametrize(
        "damage, line",
        [
            ("stray", "stray.txt: in goldens but no longer generated"),
            ("missing", "figure1.json: newly generated, not in goldens"),
        ],
    )
    def test_file_set_mismatch_fails(self, tmp_path, damage, line):
        _update(tmp_path, only=("figure1",))
        if damage == "stray":
            (tmp_path / "figure1" / "stray.txt").write_text("boo\n")
        else:
            (tmp_path / "figure1" / "figure1.json").unlink()
        lines = []
        assert verify_goldens(tmp_path, only=("figure1",), out=lines.append) == 1
        assert f"    {line}" in lines

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


class TestOrphanedGoldens:
    """A committed goldens directory that no surface claims (a retired
    experiment's) is drift on a full run, never a silent pass."""

    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        _update(tmp_path, only=("figure1",))
        # A full run over figure1 alone keeps the test fast.
        monkeypatch.setattr(
            "repro.goldens.verify.get_surfaces",
            lambda only: (SURFACES_BY_NAME["figure1"],) if only is None else None,
        )
        return tmp_path

    def test_full_run_reports_orphan_and_fails(self, tree):
        orphan = tree / "retired"
        orphan.mkdir()
        (orphan / "retired.csv").write_text("k,v\n1,2\n")
        lines = []
        assert verify_goldens(tree, out=lines.append) == 1
        assert [line for line in lines if "ORPHAN" in line] == [
            f"[goldens] retired      ORPHAN (claimed by no surface; "
            f"delete {orphan} or register its experiment)"
        ]
        assert "verify-goldens: 1/1 surface(s) clean" in lines
        assert any(line.startswith("drift detected in: retired") for line in lines)

    def test_full_run_without_orphans_is_clean(self, tree):
        assert verify_goldens(tree, out=lambda _l: None) == 0

    def test_only_run_ignores_unclaimed_directories(self, tmp_path):
        _update(tmp_path, only=("figure1",))
        (tmp_path / "retired").mkdir()
        assert verify_goldens(tmp_path, only=("figure1",), out=lambda _l: None) == 0


class TestDeterminism:
    """Back-to-back runs per seed must produce byte-identical artifacts."""

    @pytest.mark.parametrize("name", ["chaos", "failover"])
    def test_surface_byte_identical_across_runs(self, name):
        surface = SURFACES_BY_NAME[name]
        assert surface.generate() == surface.generate()

    def test_every_surface_is_registered(self):
        assert set(surface_names()) == {exp.name for exp in EXPERIMENTS} | {
            f"{exp.name}@full" for exp in EXPERIMENTS if exp.full is not None
        }


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

    def test_verify_writes_only_through_out(self, capfd):
        # The gate's status lines are its only output: a surface's run
        # (here the campaign's trials) prints nothing of its own.
        lines = []
        code = verify_goldens(
            REPO_ROOT / "goldens", only=("campaign",), out=lines.append
        )
        assert code == 0, "\n".join(lines)
        assert capfd.readouterr() == ("", "")

    def test_committed_tree_has_no_orphans(self):
        assert orphan_dirs(REPO_ROOT / "goldens", SURFACES) == []

    def test_committed_goldens_hold_no_carriage_return(self):
        # ``.gitattributes`` marks goldens/ as binary (``-text``), so a
        # checkout with core.autocrlf=true cannot rewrite these bytes.
        for path in sorted((REPO_ROOT / "goldens").rglob("*")):
            if path.is_file():
                assert b"\r" not in path.read_bytes(), path

    def test_fresh_csv_is_the_committed_bytes(self):
        fresh = SURFACES_BY_NAME["figure2"].generate()["figure2.csv"]
        committed = (REPO_ROOT / "goldens" / "figure2" / "figure2.csv").read_bytes()
        assert fresh.encode("utf-8") == committed


class TestSigkillMidRun:
    """SIGKILL mid-write: the previous set or nothing, plus an orphan."""

    SCRIPT = """
import sys, time
from repro.goldens.writer import write_run

class SlowFiles(dict):
    def items(self):
        yield "a.json", "{}\\n"
        print("WROTE_A", flush=True)
        time.sleep(30)  # SIGKILLed here
        yield "b.json", "{}\\n"

write_run(sys.argv[1], SlowFiles())
"""

    def _kill_after_first_file(self, run_dir):
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
        # a.json landed in a staging sibling that the orphan check names.
        (orphan,) = orphan_dirs(run_dir.parent, SURFACES)
        assert orphan.startswith(f".tmp-{run_dir.name}-")
        assert [p.name for p in (run_dir.parent / orphan).iterdir()] == ["a.json"]

    def test_no_partial_survives_as_valid(self, tmp_path):
        # A killed `update-goldens` of figure1, as the goldens tree sees it.
        run_dir = tmp_path / "figure1"
        write_run(run_dir, {"old.json": "{}\n"})
        self._kill_after_first_file(run_dir)
        assert [p.name for p in run_dir.iterdir()] == ["old.json"]
        # The next write replaces the directory whole.
        write_run(run_dir, {"a.json": "{}\n", "b.json": "{}\n"})
        assert sorted(p.name for p in run_dir.iterdir()) == ["a.json", "b.json"]

    def test_killed_first_write_leaves_no_target(self, tmp_path):
        run_dir = tmp_path / "figure1"
        self._kill_after_first_file(run_dir)
        assert not run_dir.exists()


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
