"""Unit tests: canonical artifact hashing."""

import json

import pytest

from repro.errors import ExperimentError
from repro.goldens.scrub import canonical_file_hash, raw_file_hash


class TestCanonicalFileHash:
    def test_json_key_order_does_not_matter(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"x": 1, "y": 2}')
        b.write_text('{"y": 2, "x": 1}')
        assert canonical_file_hash(a) == canonical_file_hash(b)
        assert raw_file_hash(a) != raw_file_hash(b)

    def test_semantic_change_changes_hash(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"rows": [1, 2]}))
        b.write_text(json.dumps({"rows": [1, 3]}))
        assert canonical_file_hash(a) != canonical_file_hash(b)

    def test_csv_newline_normalization(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_bytes(b"x,y\r\n1,2\r\n")
        b.write_bytes(b"x,y\n1,2\n")
        assert canonical_file_hash(a) == canonical_file_hash(b)

    def test_int_float_distinction_survives(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"v": 2}')
        b.write_text('{"v": 2.0}')
        assert canonical_file_hash(a) != canonical_file_hash(b)

    def test_truncated_json_raises(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"rows": [1, 2')
        with pytest.raises(ExperimentError, match="truncated"):
            canonical_file_hash(a)

    @pytest.mark.parametrize("name", ["a.json", "a.csv"])
    def test_undecodable_bytes_raise(self, tmp_path, name):
        a = tmp_path / name
        a.write_bytes(b"\xff\xfe")
        with pytest.raises(ExperimentError, match="truncated"):
            canonical_file_hash(a)
