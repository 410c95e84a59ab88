"""Result analysis and plain-text reporting.

The benchmark harness prints the same rows/series the paper's figures
show; this package holds the shared machinery — ASCII tables, ratio
and aggregate helpers, and per-figure report builders.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.analysis.report": (
        "flow_sweep_rows", "overhead_rows", "scenario_rows", "speedup_summary",
    ),
    "repro.analysis.tables": (
        "format_value", "geometric_mean", "render_table",
    ),
})
