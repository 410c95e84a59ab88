"""Structured observability: event bus, exchange spans, streaming
metrics and exporters.

Layer level 0 — imports nothing from the rest of the package.  See
README "Observability" for the event vocabulary and the wiring map.
"""

from repro.obs.events import NULL_LOG, EventLog, NullLog, ObsEvent
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RTD_BUCKETS,
    merge_metrics_snapshots,
)
from repro.obs.prom import (
    metrics_to_csv,
    metrics_to_jsonl,
    parse_prometheus,
    to_prometheus,
)
from repro.obs.spans import ExchangeSpan, build_spans, percentile, span_stats

__all__ = [
    "Counter",
    "EventLog",
    "ExchangeSpan",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_LOG",
    "NullLog",
    "ObsEvent",
    "RTD_BUCKETS",
    "build_spans",
    "merge_metrics_snapshots",
    "metrics_to_csv",
    "metrics_to_jsonl",
    "parse_prometheus",
    "percentile",
    "span_stats",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
]
