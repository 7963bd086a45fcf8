"""Unit tests: atomic file writes, and whole runs swapped into place.

A run the writer completed and something later damaged (truncated,
edited, a stray file added, emptied) must be caught by the drift gate's
byte compare, which is what the ``detected`` / ``invalid`` cases run.
"""

import stat

import pytest

from repro.goldens.verify import _compare_surface
from repro.goldens.writer import TMP_PREFIX, atomic_write_text, write_run
from repro.metrics.export import to_csv


class TestAtomicWrite:
    def test_creates_file_with_content(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_never_truncates(self, tmp_path):
        target = tmp_path / "a.txt"
        target.write_text("old content")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "x" * 100_000)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(TMP_PREFIX)]
        assert leftovers == []

    def test_failure_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "a.txt"
        target.write_text("precious")
        with pytest.raises(TypeError):
            atomic_write_text(target, object())  # not a str: write blows up
        assert target.read_text() == "precious"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(TMP_PREFIX)]
        assert leftovers == []


FILES = {"a.json": '{\n  "x": 1\n}\n', "b.txt": "abc\n"}


class TestRunWriter:
    def test_writes_exactly_the_given_bytes(self, tmp_path):
        run = write_run(tmp_path / "run", FILES)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == {
            name: text.encode() for name, text in FILES.items()
        }
        assert stat.S_IMODE(run.stat().st_mode) == 0o755
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_csv_rows(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        run = write_run(tmp_path / "run", {"r.csv": to_csv(rows)})
        assert (run / "r.csv").read_bytes() == b"a,b\n1,2\n3,4\n"

    def test_replacing_a_completed_run_swaps_the_whole_set(self, tmp_path):
        write_run(tmp_path / "run", {"old.txt": "old\n", "b.txt": "old\n"})
        run = write_run(tmp_path / "run", FILES)
        assert sorted(p.name for p in run.iterdir()) == ["a.json", "b.txt"]
        assert (run / "b.txt").read_text() == "abc\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_failed_write_keeps_the_previous_set(self, tmp_path):
        write_run(tmp_path / "run", FILES)
        with pytest.raises(AttributeError):
            write_run(tmp_path / "run", {"a.json": "new\n", "b.txt": None})
        run = tmp_path / "run"
        assert {p.name: p.read_text() for p in run.iterdir()} == FILES
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_truncation_detected_after_the_fact(self, tmp_path):
        run = write_run(tmp_path / "run", FILES)
        (run / "a.json").write_text('{\n  "x"')
        (line, *field_lines) = _compare_surface(run, FILES)
        assert line == "a.json: bytes differ (7 golden vs 13 current)"
        assert "not valid JSON" in field_lines[0]

    def test_single_byte_tamper_detected(self, tmp_path):
        run = write_run(tmp_path / "run", FILES)
        (run / "b.txt").write_text("abd\n")
        assert _compare_surface(run, FILES) == [
            "b.txt: bytes differ (4 golden vs 4 current)",
            "  line 1: golden 'abd' != current 'abc'",
        ]

    def test_stray_file_detected(self, tmp_path):
        run = write_run(tmp_path / "run", FILES)
        (run / "intruder.txt").write_text("boo")
        assert _compare_surface(run, FILES) == [
            "intruder.txt: in goldens but no longer generated"
        ]

    def test_empty_directory_is_invalid(self, tmp_path):
        (tmp_path / "run").mkdir()
        assert _compare_surface(tmp_path / "run", FILES) == [
            "a.json: newly generated, not in goldens",
            "b.txt: newly generated, not in goldens",
        ]
