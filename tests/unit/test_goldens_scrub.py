"""Unit tests: volatile-field scrubbing and canonical artifact hashing."""

import json

import pytest

from repro.errors import ExperimentError
from repro.goldens.scrub import (
    BENCH_VOLATILE,
    canonical_file_hash,
    raw_file_hash,
    scrub_payload,
)


class TestScrubPayload:
    def test_drops_top_level_subtree(self):
        payload = {"host": {"cpu": "xeon"}, "schema": 3}
        assert scrub_payload(payload, ("host",)) == {"schema": 3}

    def test_drops_nested_path(self):
        payload = {"sharded": {"serial_wall_s": 1.2, "rollbacks": 4}}
        scrubbed = scrub_payload(payload, ("sharded.serial_wall_s",))
        assert scrubbed == {"sharded": {"rollbacks": 4}}

    def test_lists_are_transparent(self):
        payload = {"rows": [{"count": 1, "secs": 0.5}, {"count": 2, "secs": 0.7}]}
        scrubbed = scrub_payload(payload, ("rows.secs",))
        assert scrubbed == {"rows": [{"count": 1}, {"count": 2}]}

    def test_wildcard_segment(self):
        payload = {"a": {"t": 1, "keep": 2}, "b": {"t": 3, "keep": 4}}
        scrubbed = scrub_payload(payload, ("*.t",))
        assert scrubbed == {"a": {"keep": 2}, "b": {"keep": 4}}

    def test_input_not_mutated(self):
        payload = {"host": "x", "keep": [{"v": 1}]}
        scrub_payload(payload, ("host",))
        assert payload == {"host": "x", "keep": [{"v": 1}]}

    def test_no_patterns_is_identity(self):
        payload = {"a": [1, 2, {"b": None}]}
        assert scrub_payload(payload) == payload

    def test_pattern_shorter_than_path_does_not_match(self):
        # "a" drops the whole subtree; "a.b" must not drop key "a" itself.
        payload = {"a": {"b": 1, "c": 2}}
        assert scrub_payload(payload, ("a.b",)) == {"a": {"c": 2}}


class TestBenchVolatile:
    def test_keeps_semantic_fields_drops_host_and_timings(self):
        snapshot = {
            "schema": 6,
            "python": "3.11.7",
            "cpu_count": 8,
            "host": {"cpu_model": "x", "platform": "y"},
            "kernel": {"events_per_sec": 12345},
            "sweeps": {"figure8_quick_s": 0.5},
            "baseline": {"speedup_serial": 2.0},
            "burst_ablation": [{"burst": 1, "origin_messages": 512}],
        }
        scrubbed = scrub_payload(snapshot, BENCH_VOLATILE)
        assert scrubbed == {
            "schema": 6,
            "burst_ablation": [{"burst": 1, "origin_messages": 512}],
        }


class TestCanonicalFileHash:
    def test_json_key_order_does_not_matter(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"x": 1, "y": 2}')
        b.write_text('{"y": 2, "x": 1}')
        assert canonical_file_hash(a) == canonical_file_hash(b)
        assert raw_file_hash(a) != raw_file_hash(b)

    def test_volatile_fields_do_not_affect_hash(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"host": "fast-box", "rows": [1, 2]}))
        b.write_text(json.dumps({"host": "slow-box", "rows": [1, 2]}))
        assert canonical_file_hash(a, ("host",)) == canonical_file_hash(
            b, ("host",)
        )
        assert canonical_file_hash(a) != canonical_file_hash(b)

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
