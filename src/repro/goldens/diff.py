"""Per-file and per-field drift reports.

When the drift gate fails, the report must say *what* moved, not just
that the bytes differ: which JSON field or CSV cell, golden value vs
current value.  That is what makes the gate reviewable — a semantic PR
pastes this report next to the regenerated goldens.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

#: Cap per-file reports so a wholesale rewrite stays readable.
MAX_DIFFS_PER_FILE = 20


def _fmt(value: Any) -> str:
    text = json.dumps(value, sort_keys=True) if not isinstance(value, str) else value
    return text if len(text) <= 60 else text[:57] + "..."


def _diff_payload(
    path: str, golden: Any, current: Any, out: list[str]
) -> None:
    """Recursively diff two JSON payloads, field by field."""
    if len(out) > MAX_DIFFS_PER_FILE:
        return
    if isinstance(golden, dict) and isinstance(current, dict):
        for key in sorted(set(golden) | set(current)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in golden:
                out.append(f"{sub}: only in current ({_fmt(current[key])})")
            elif key not in current:
                out.append(f"{sub}: only in golden ({_fmt(golden[key])})")
            else:
                _diff_payload(sub, golden[key], current[key], out)
        return
    if isinstance(golden, list) and isinstance(current, list):
        if len(golden) != len(current):
            out.append(
                f"{path}: {len(golden)} golden item(s) vs "
                f"{len(current)} current"
            )
        for index, (g, c) in enumerate(zip(golden, current)):
            _diff_payload(f"{path}[{index}]", g, c, out)
        return
    if golden != current or type(golden) is not type(current):
        out.append(f"{path}: golden {_fmt(golden)} != current {_fmt(current)}")


def _diff_csv(golden_text: str, current_text: str, out: list[str]) -> None:
    """Diff two CSV artifacts cell by cell, naming row and column."""
    golden_rows = list(csv.reader(io.StringIO(golden_text)))
    current_rows = list(csv.reader(io.StringIO(current_text)))
    if not golden_rows or not current_rows:
        out.append("csv: empty golden or current file")
        return
    header_g, header_c = golden_rows[0], current_rows[0]
    if header_g != header_c:
        out.append(f"header: golden {header_g} != current {header_c}")
    if len(golden_rows) != len(current_rows):
        out.append(
            f"row count: {len(golden_rows) - 1} golden data row(s) vs "
            f"{len(current_rows) - 1} current"
        )
    columns = header_g if header_g == header_c else None
    for row_index, (row_g, row_c) in enumerate(
        zip(golden_rows[1:], current_rows[1:]), start=1
    ):
        if len(out) > MAX_DIFFS_PER_FILE:
            return
        width = max(len(row_g), len(row_c))
        for col in range(width):
            cell_g = row_g[col] if col < len(row_g) else "<missing>"
            cell_c = row_c[col] if col < len(row_c) else "<missing>"
            if cell_g != cell_c:
                label = (
                    columns[col]
                    if columns is not None and col < len(columns)
                    else f"col {col}"
                )
                out.append(
                    f"row {row_index} [{label}]: golden {cell_g!r} "
                    f"!= current {cell_c!r}"
                )


def _diff_text(golden_text: str, current_text: str, out: list[str]) -> None:
    golden_lines = golden_text.splitlines()
    current_lines = current_text.splitlines()
    if len(golden_lines) != len(current_lines):
        out.append(
            f"line count: {len(golden_lines)} golden vs {len(current_lines)}"
        )
    for number, (line_g, line_c) in enumerate(
        zip(golden_lines, current_lines), start=1
    ):
        if len(out) > MAX_DIFFS_PER_FILE:
            return
        if line_g != line_c:
            out.append(f"line {number}: golden {line_g!r} != current {line_c!r}")


def _parse(name: str, side: str, data: bytes) -> Any:
    """One side's content: a JSON payload for ``.json``, else its text."""
    is_json = name.endswith(".json")
    try:
        text = data.decode("utf-8")
        return json.loads(text) if is_json else text
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        kind = "JSON" if is_json else "UTF-8 text"
        raise ValueError(
            f"{side} {name}: not valid {kind} (truncated artifact?): {exc}"
        ) from None


def diff_artifacts(name: str, golden: bytes, current: bytes) -> list[str]:
    """Per-field differences between a golden artifact and a fresh one.

    JSON files are compared as parsed payloads; CSV files cell by cell
    with header-named columns; anything else line by line.  Returns
    human-readable lines, capped at :data:`MAX_DIFFS_PER_FILE` (with a
    trailing elision marker).  Differences the parse hides, such as
    line endings or JSON spacing, yield no line: the caller's byte
    compare reports those.
    """
    try:
        golden_payload = _parse(name, "golden", golden)
        current_payload = _parse(name, "current", current)
    except ValueError as exc:
        return [str(exc)]
    out: list[str] = []
    if name.endswith(".json"):
        _diff_payload("", golden_payload, current_payload, out)
    elif name.endswith(".csv"):
        _diff_csv(golden_payload, current_payload, out)
    else:
        _diff_text(golden_payload, current_payload, out)
    if len(out) > MAX_DIFFS_PER_FILE:
        extra = len(out) - MAX_DIFFS_PER_FILE
        out = out[:MAX_DIFFS_PER_FILE] + [f"... ({extra} more difference(s))"]
    return out
