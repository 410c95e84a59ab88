"""Structured observability: event bus, exchange spans, streaming
metrics and exporters.

Layer level 0 — imports nothing from the rest of the package.  See
README "Observability" for the event vocabulary and the wiring map.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.obs.events": ("EventLog", "NULL_LOG", "NullLog", "ObsEvent"),
    "repro.obs.export": ("to_chrome_trace", "to_jsonl"),
    "repro.obs.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "RTD_BUCKETS",
        "merge_metrics_snapshots",
    ),
    "repro.obs.prom": (
        "metrics_to_csv", "metrics_to_jsonl", "parse_prometheus",
        "to_prometheus",
    ),
    "repro.obs.spans": (
        "ExchangeSpan", "build_spans", "percentile", "span_stats",
    ),
})
