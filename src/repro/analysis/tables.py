"""Plain-text table rendering for benchmark and example output.

Every claim table regenerates a paper table/figure as a list of row dicts;
this module turns those rows into aligned ASCII tables so the output can be
compared with the paper at a glance (and diffed between runs).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_value(value: object, precision: int = 3) -> str:
    """Format a cell: floats get fixed precision, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` (a list of dicts) as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(empty table)" if title else "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(column) for column in columns]]
    for row in rows:
        rendered.append([format_value(row.get(column, ""), precision) for column in columns])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(cell.ljust(width) for cell, width in zip(rendered[0], widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered[1:]:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def merge_rows(rows: Iterable[Mapping[str, object]], extra: Mapping[str, object]) -> List[Dict[str, object]]:
    """Return copies of ``rows`` with the ``extra`` key/values added to each."""
    return [{**row, **extra} for row in rows]
