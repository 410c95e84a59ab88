"""Result analysis and plain-text reporting.

The benchmark harness prints the same rows/series the paper's figures
show; this package holds the shared machinery — ASCII tables, ratio
and aggregate helpers, and per-figure report builders.
"""

from repro.analysis.report import (
    flow_sweep_rows,
    overhead_rows,
    scenario_rows,
    speedup_summary,
)
from repro.analysis.tables import format_value, geometric_mean, render_table

__all__ = [
    "flow_sweep_rows",
    "format_value",
    "geometric_mean",
    "overhead_rows",
    "render_table",
    "scenario_rows",
    "speedup_summary",
]
