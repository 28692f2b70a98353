"""Plain-text rendering helpers for tables and figure series.

The harness regenerates the paper's tables and figures as aligned
monospace text (this is a library, not a plotting package); each cell
prints next to the paper's value where the paper reports one, so the
shape comparison is immediate.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_series", "banner"]


def banner(title: str) -> str:
    bar = "=" * max(8, len(title))
    return f"{bar}\n{title}\n{bar}"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table."""
    srows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        srows.append([_fmt(c) for c in row])
    widths = [max(len(r[i]) for r in srows) for i in range(len(srows[0]))]
    lines = []
    if title:
        lines.append(banner(title))
    for j, row in enumerate(srows):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_series(
    title: str,
    xlabel: str,
    xs: Sequence[object],
    columns: Sequence[tuple],
) -> str:
    """Render (x, y…) series as a table: one row per x value.

    ``columns`` is a sequence of ``(name, values)`` pairs aligned with
    ``xs``.
    """
    headers = [xlabel] + [name for name, _ in columns]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [vals[i] for _, vals in columns])
    return format_table(headers, rows, title=title)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)
