"""Telemetry: metrics registry, per-run trace trees, structured logs.

Zero external dependencies.  The three pillars:

- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of labeled
  counters/gauges/histograms with Prometheus-text and JSON exposition.
- :mod:`repro.obs.tracing` — :class:`Tracer`/:class:`Span` trace trees
  scoped through contextvars; ``span()`` is free when no trace is live.
- :mod:`repro.obs.logcfg` — structured logging with ambient run/session
  context and text/JSON formatters.

Metrics and tracing have no off switch: every engine records into a
registry (its own or a shared one), and every live run carries a trace.
"""

from repro.obs.logcfg import (
    JsonFormatter,
    StructuredLogger,
    TextFormatter,
    configure_logging,
    context_fields,
    get_logger,
    log_context,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.tracing import MAX_CHILDREN, Span, Tracer, active_span, mark, span

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MAX_CHILDREN",
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "StructuredLogger",
    "TextFormatter",
    "Tracer",
    "active_span",
    "configure_logging",
    "context_fields",
    "get_logger",
    "log_context",
    "mark",
    "span",
]
