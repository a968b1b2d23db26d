"""Plain-text table rendering.

Every experiment prints the rows/series of the paper table or figure it
regenerates; this module renders them uniformly so the output is
readable in a terminal and diffable across runs.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

__all__ = ["format_table"]


def _fmt_cell(value: Any, float_fmt: str) -> str:
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
    float_fmt: str = ".3f",
) -> str:
    """Render rows as an aligned ASCII table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of row sequences; each row must have ``len(headers)``
        entries.  Floats are formatted with ``float_fmt``.
    title:
        Optional title printed above the table.
    float_fmt:
        Format spec applied to floats (default three decimals).

    Returns
    -------
    str
        The formatted table, without a trailing newline.
    """
    str_rows = []
    for row in rows:
        row = list(row)
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns: {row!r}"
            )
        str_rows.append([_fmt_cell(c, float_fmt) for c in row])

    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(r) for r in str_rows)
    return "\n".join(lines)
