"""Unit tests: per-file / per-field drift reports."""

import json

from repro.goldens.diff import MAX_DIFFS_PER_FILE, diff_artifacts


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return path


class TestJsonDiff:
    def test_identical_payloads_no_diff(self, tmp_path):
        a = _write(tmp_path, "a.json", '{"x": 1, "y": [1, 2]}')
        b = _write(tmp_path, "b.json", '{"y": [1, 2], "x": 1}')
        assert diff_artifacts(a, b) == []

    def test_field_level_report(self, tmp_path):
        a = _write(tmp_path, "a.json", json.dumps({"rows": [{"gwc": 1.5}]}))
        b = _write(tmp_path, "b.json", json.dumps({"rows": [{"gwc": 1.7}]}))
        (line,) = diff_artifacts(a, b)
        assert "rows[0].gwc" in line
        assert "1.5" in line and "1.7" in line

    def test_missing_and_extra_keys(self, tmp_path):
        a = _write(tmp_path, "a.json", '{"old": 1, "both": 2}')
        b = _write(tmp_path, "b.json", '{"new": 3, "both": 2}')
        lines = "\n".join(diff_artifacts(a, b))
        assert "old: only in golden" in lines
        assert "new: only in current" in lines

    def test_list_length_change(self, tmp_path):
        a = _write(tmp_path, "a.json", '{"rows": [1, 2, 3]}')
        b = _write(tmp_path, "b.json", '{"rows": [1, 2]}')
        lines = "\n".join(diff_artifacts(a, b))
        assert "3 golden item(s) vs 2 current" in lines

    def test_truncated_current_reported(self, tmp_path):
        a = _write(tmp_path, "a.json", '{"v": 1}')
        b = _write(tmp_path, "b.json", '{"v": ')
        lines = diff_artifacts(a, b)
        assert any("truncated artifact" in line for line in lines)


class TestCsvDiff:
    def test_cell_diff_names_row_and_column(self, tmp_path):
        a = _write(tmp_path, "a.csv", "n,gwc\n3,1.5\n5,2.5\n")
        b = _write(tmp_path, "b.csv", "n,gwc\n3,1.5\n5,2.6\n")
        (line,) = diff_artifacts(a, b)
        assert "row 2" in line and "[gwc]" in line
        assert "'2.5'" in line and "'2.6'" in line

    def test_row_count_change(self, tmp_path):
        a = _write(tmp_path, "a.csv", "n\n1\n2\n")
        b = _write(tmp_path, "b.csv", "n\n1\n")
        lines = "\n".join(diff_artifacts(a, b))
        assert "2 golden data row(s) vs 1 current" in lines

    def test_header_change(self, tmp_path):
        a = _write(tmp_path, "a.csv", "n,old\n1,2\n")
        b = _write(tmp_path, "b.csv", "n,new\n1,2\n")
        lines = "\n".join(diff_artifacts(a, b))
        assert "header" in lines

    def test_report_capped(self, tmp_path):
        rows_a = "\n".join(f"{i},0" for i in range(100))
        rows_b = "\n".join(f"{i},1" for i in range(100))
        a = _write(tmp_path, "a.csv", "i,v\n" + rows_a + "\n")
        b = _write(tmp_path, "b.csv", "i,v\n" + rows_b + "\n")
        lines = diff_artifacts(a, b)
        assert len(lines) == MAX_DIFFS_PER_FILE + 1
        assert "more difference(s)" in lines[-1]


class TestTextDiff:
    def test_line_diff(self, tmp_path):
        a = _write(tmp_path, "a.txt", "same\ngolden\n")
        b = _write(tmp_path, "b.txt", "same\ncurrent\n")
        (line,) = diff_artifacts(a, b)
        assert "line 2" in line
