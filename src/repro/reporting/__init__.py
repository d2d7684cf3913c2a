"""Text tables and ASCII charts."""

from repro.reporting.figures import ascii_bar_chart, cdf_table
from repro.reporting.tables import format_percent, format_table

__all__ = [
    "ascii_bar_chart",
    "cdf_table",
    "format_percent",
    "format_table",
]
