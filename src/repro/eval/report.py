"""Plain-text rendering of the paper's tables and figures.

``repro.eval.regenerate`` renders every artifact's rows through these
helpers, so ``python -m repro`` prints the evaluation section as text.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """A fixed-width table with a title rule."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [f"=== {title} ===", fmt(list(headers)),
             fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def pct(value: float, digits: int = 2) -> str:
    """Format a ratio as a percentage string."""
    return f"{value * 100:.{digits}f}%"


def times(value: float, digits: int = 1) -> str:
    """Format a speedup as 'N.Nx'."""
    return f"{value:.{digits}f}x"
