"""Plain-text table rendering used by the report and the examples."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_percent(value: float, digits: int = 2) -> str:
    """Format a fraction as a percentage string (``0.4401`` → ``"44.01%"``)."""

    return f"{value * 100:.{digits}f}%"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render *rows* as an aligned monospace table."""

    def _sanitise(cell: object) -> str:
        # Whitespace control characters would break the monospace alignment.
        return " ".join(str(cell).split())

    rendered_rows: List[List[str]] = [[_sanitise(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have the same number of cells as the header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line([str(header) for header in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)
