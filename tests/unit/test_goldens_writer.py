"""Unit tests: atomic writes, manifest-last runs, stale-partial cleanup."""

import pytest

from repro.errors import ExperimentError
from repro.goldens.manifest import (
    MANIFEST_NAME,
    load_manifest,
    manifest_errors,
    parse_manifest,
)
from repro.goldens.writer import TMP_PREFIX, RunWriter, atomic_write_text


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


class TestRunWriter:
    def test_manifest_written_last(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.write_json("a.json", {"x": 1})
        run.write_text("b.txt", "hi\n")
        # Before finalize: artifacts exist, the directory is NOT valid.
        assert (tmp_path / "run" / "a.json").is_file()
        assert not (tmp_path / "run" / MANIFEST_NAME).exists()
        assert manifest_errors(tmp_path / "run")  # invalid without manifest
        run.finalize()
        assert manifest_errors(tmp_path / "run") == []
        manifest = load_manifest(tmp_path / "run")
        assert set(manifest.files) == {"a.json", "b.txt"}
        assert manifest.surface == "t"

    def test_csv_rows(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.write_csv("r.csv", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        run.finalize()
        assert (tmp_path / "run" / "r.csv").read_text().startswith("a,b")
        assert manifest_errors(tmp_path / "run") == []

    def test_truncation_detected_after_the_fact(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.write_text("a.txt", "full content here\n")
        run.finalize()
        # Simulate a torn write / disk corruption on the completed run.
        (tmp_path / "run" / "a.txt").write_text("full")
        problems = manifest_errors(tmp_path / "run")
        assert any("bytes" in p for p in problems)

    def test_single_byte_tamper_detected(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.write_text("a.txt", "abc\n")
        run.finalize()
        (tmp_path / "run" / "a.txt").write_text("abd\n")
        problems = manifest_errors(tmp_path / "run")
        assert any("raw sha256" in p for p in problems)

    @pytest.mark.parametrize(
        "manifest",
        [
            # A field this reader does not know: never half-understood.
            b'{"schema": 1, "surface": "t", "files": {"a.txt": {"sha256": "0",'
            b' "raw_sha256": "0", "bytes": 4, "unknown": []}}}',
            b'{"schema": 1, "surface": "t", "files": ["a.txt"]}',
            b'{"schema": 1, "surface": "t", "files": {"a.txt": {"bytes": 4}}}',
            b'{"schema": 1, "surf',
            b"\xff\xfe not utf-8",
        ],
    )
    def test_malformed_manifest_is_a_reported_problem(self, tmp_path, manifest):
        run = RunWriter(tmp_path / "run", "t")
        run.write_text("a.txt", "abc\n")
        run.finalize()
        (tmp_path / "run" / MANIFEST_NAME).write_bytes(manifest)
        (problem,) = manifest_errors(tmp_path / "run")
        assert "manifest is" in problem

    def test_unknown_manifest_field_is_named(self):
        stale = (
            b'{"schema": 1, "surface": "t", "files": {"a.txt": {"sha256": "0",'
            b' "raw_sha256": "0", "bytes": 4, "retired": []}}}'
        )
        with pytest.raises(ExperimentError, match=r"a\.txt.*'retired'.*make goldens"):
            parse_manifest(stale)

    def test_stray_file_detected(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.write_text("a.txt", "x\n")
        run.finalize()
        (tmp_path / "run" / "intruder.txt").write_text("boo")
        problems = manifest_errors(tmp_path / "run")
        assert any("not in the manifest" in p for p in problems)

    def test_stale_partial_cleanup_on_next_run(self, tmp_path):
        # An interrupted run: artifacts on disk, no manifest.
        crashed = RunWriter(tmp_path / "run", "t")
        crashed.write_json("a.json", {"x": 1})
        crashed.write_json("b.json", {"y": 2})
        # ... SIGKILL here: finalize() never happens.
        notes = []
        fresh = RunWriter(tmp_path / "run", "t", out=notes.append)
        assert sorted(fresh.cleaned_stale) == ["a.json", "b.json"]
        assert any("stale partial" in note for note in notes)
        fresh.write_json("a.json", {"x": 1})
        fresh.finalize()
        assert manifest_errors(tmp_path / "run") == []
        assert not (tmp_path / "run" / "b.json").exists()

    def test_orphan_temp_files_removed(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / f"{TMP_PREFIX}a.json-zz").write_text("partial bytes")
        fresh = RunWriter(run_dir, "t")
        assert list(run_dir.iterdir()) == []
        # Orphaned temps are not artifacts: not reported as stale.
        assert fresh.cleaned_stale == []

    def test_replacing_a_completed_run_invalidates_first(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.write_text("old.txt", "old\n")
        run.finalize()
        # Claiming the directory again deletes the manifest immediately:
        # a crash mid-rewrite must not leave a manifest blessing a mix.
        again = RunWriter(tmp_path / "run", "t")
        assert not (tmp_path / "run" / MANIFEST_NAME).exists()
        assert not (tmp_path / "run" / "old.txt").exists()
        assert again.cleaned_stale == []  # previous run was complete

    def test_duplicate_name_rejected(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.write_text("a.txt", "x\n")
        with pytest.raises(ExperimentError, match="twice"):
            run.write_text("a.txt", "y\n")

    def test_reserved_names_rejected(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        with pytest.raises(ExperimentError):
            run.write_text(MANIFEST_NAME, "{}")
        with pytest.raises(ExperimentError):
            run.write_text("sub/a.txt", "x")

    def test_write_after_finalize_rejected(self, tmp_path):
        run = RunWriter(tmp_path / "run", "t")
        run.finalize()
        with pytest.raises(ExperimentError, match="finalized"):
            run.write_text("late.txt", "x")
        with pytest.raises(ExperimentError, match="twice"):
            run.finalize()

    def test_empty_directory_is_invalid(self, tmp_path):
        (tmp_path / "run").mkdir()
        assert manifest_errors(tmp_path / "run")
