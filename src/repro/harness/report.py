"""Plain-text rendering of harness results (tables and series).

The benches print exactly the rows/series the paper reports, so a
side-by-side read against the PDF is one ``pytest benchmarks/`` away.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["render_table", "render_series"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def render_series(
    x_label: str,
    xs: Sequence[object],
    series: Sequence[tuple],
    title: str = "",
) -> str:
    """Render named (label, ys) series against shared x values."""
    headers = [x_label] + [label for label, _ in series]
    rows = []
    for i, x in enumerate(xs):
        row = [x] + [ys[i] if i < len(ys) else "" for _, ys in series]
        rows.append(row)
    return render_table(headers, rows, title=title)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
