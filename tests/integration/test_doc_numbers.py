"""The paper-scale numbers the docs print are the ``@full`` goldens'.

EXPERIMENTS.md's Figure 2 and Figure 8 per-size tables and README's
"Summary at full scale" Fig. 2 / Fig. 8 rows are copied from
``goldens/figure2@full/figure2.csv`` and ``goldens/figure8@full/figure8.csv``.
Every number in those cells must equal its golden value at the
precision the cell prints.  Files only: no simulation runs here.  After
a reviewed ``make goldens`` moves a number, copy it into the docs.
"""

from __future__ import annotations

import csv
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _golden(name: str) -> list[dict[str, float]]:
    path = REPO_ROOT / "goldens" / f"{name}@full" / f"{name}.csv"
    with path.open(newline="") as handle:
        return [
            {key: float(value) for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]


def _table(text: str, heading: str, header: str) -> list[list[str]]:
    """The body cells of the first table under ``heading`` whose header
    row starts with ``header``."""
    section = text[text.index(heading) :]
    lines = section[section.index(header) :].splitlines()
    rows = []
    for line in lines[2:]:  # past the header and its |---| rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _differs(cell: str, value: float) -> bool:
    """Whether ``cell`` misprints ``value`` at the cell's own precision."""
    decimals = len(cell.partition(".")[2])
    return f"{value:.{decimals}f}" != cell


def _doc_cells() -> list[tuple[str, str, float]]:
    """Every ``(where, cell, golden value)`` the docs print."""
    fig2, fig8 = _golden("figure2"), _golden("figure8")
    cells = []
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for heading, golden in (("## Figure 2", fig2), ("## Figure 8", fig8)):
        table = _table(experiments, heading, "| CPUs")
        assert len(table) == len(golden), f"EXPERIMENTS.md {heading}: sizes"
        for row, values in zip(table, golden):
            for column, cell in zip(values, row):
                where = f"EXPERIMENTS.md {heading[3:]} n={row[0]} {column}"
                cells.append((where, cell.strip("*"), values[column]))

    gwc_peak = max(fig2, key=lambda row: row["gwc"])
    entry_peak = max(fig2, key=lambda row: row["entry"])
    first, last = fig8[0], fig8[-1]
    summary = {
        "Fig. 2 GWC peak": (gwc_peak["gwc"], gwc_peak["n_nodes"]),
        "Fig. 2 entry peak": (entry_peak["entry"], entry_peak["n_nodes"]),
        "Fig. 8 ceiling": (first["max_power"],),
        "Fig. 8 optimistic": (first["optimistic"], last["optimistic"]),
        "Fig. 8 non-opt GWC": (first["gwc"], last["gwc"]),
        "Fig. 8 entry": (first["entry"], last["entry"]),
        "opt / entry @ 2 CPUs": (first["optimistic"] / first["entry"],),
    }
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    rows = {row[0]: row for row in _table(readme, "Summary at full", "| artefact")}
    for label, values in summary.items():
        measured = NUMBER.findall(rows[label][2])
        assert len(measured) == len(values), f"README {label!r}: {rows[label]}"
        cells += [
            (f"README {label}", cell, value)
            for cell, value in zip(measured, values)
        ]
    return cells


def test_doc_numbers_equal_the_full_goldens():
    cells = _doc_cells()
    differ = [
        f"  {where}: doc {cell}, golden {value!r}"
        for where, cell, value in cells
        if _differs(cell, value)
    ]
    assert not differ, "\n".join(
        [f"{len(cells) - len(differ)} cells equal / {len(differ)} differ", *differ]
    )
