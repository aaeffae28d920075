"""repro.obs — unified observability: metrics registry, trace spans, exporters.

Disabled by default; ``observe()`` installs a process-wide session that
the gated helpers below write to.
See ARCHITECTURE.md § Observability for the data flow and the
instrumentation-boundary rules.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    format_metric_name,
)
from repro.obs.state import (
    ObsSession,
    current,
    enabled,
    ingest_spans,
    metric_inc,
    observe,
    publish_metrics,
    record_span,
    span,
    tracing,
)
from repro.obs.trace import Span, TraceCollector

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ObsSession",
    "Span",
    "TraceCollector",
    "current",
    "enabled",
    "format_metric_name",
    "ingest_spans",
    "metric_inc",
    "observe",
    "publish_metrics",
    "record_span",
    "span",
    "tracing",
]
