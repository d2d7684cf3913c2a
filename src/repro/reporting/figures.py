"""Text rendering of figure series.

The report prints each figure as an ASCII bar chart or series table; the
``--json`` documents carry the underlying numbers for external plotting.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple


def ascii_bar_chart(
    items: Mapping[str, float],
    *,
    width: int = 40,
    value_format: str = "{:.2f}",
    title: Optional[str] = None,
) -> str:
    """Render a label → value mapping as a horizontal ASCII bar chart."""

    if not items:
        return title or ""
    maximum = max(items.values()) or 1.0
    label_width = max(len(str(label)) for label in items)
    lines = []
    if title:
        lines.append(title)
    for label, value in items.items():
        bar_length = int(round(width * (value / maximum))) if maximum > 0 else 0
        bar = "#" * bar_length
        lines.append(
            f"{str(label).ljust(label_width)} | {bar.ljust(width)} {value_format.format(value)}"
        )
    return "\n".join(lines)


def cdf_table(
    curves: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    *,
    value_name: str = "value",
) -> str:
    """Render one or more CDF curves as a merged text table.

    ``curves`` is a sequence of ``(label, xs, cumulative_probabilities)``.
    """

    lines = []
    for label, xs, probabilities in curves:
        if len(xs) != len(probabilities):
            raise ValueError("xs and probabilities must have the same length")
        lines.append(f"{label}:")
        for x, probability in zip(xs, probabilities):
            lines.append(f"  {value_name}={x}: {probability:.3f}")
    return "\n".join(lines)
