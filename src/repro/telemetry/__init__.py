"""Telemetry subsystem: metrics registry, filter funnel, tracing.

Retina's Section 5.3 promises "logs and real-time monitoring of packet
loss, throughput, and memory usage" as the user's feedback loop for
tuning filters and callbacks, and its evaluation hinges on *where*
traffic is discarded across the four filter layers. This package makes
that telemetry first-class:

* :mod:`repro.telemetry.registry` — a dependency-free process-local
  metrics registry (counters, gauges, fixed-bucket histograms) with a
  no-op twin for zero-overhead disabled runs;
* :mod:`repro.telemetry.funnel` — the filter-funnel table (packets and
  bytes surviving each of the four filter layers), the packet-fate
  table (the one terminal state of every offered packet) and the run's
  one conservation check;
* :mod:`repro.telemetry.trace` — a sampled connection-lifecycle tracer
  whose output is deterministic across backends and worker counts;
* :mod:`repro.telemetry.spans` — burst span trees, the flight
  recorder, and the continuous hot-path profiler (see
  docs/OBSERVABILITY.md);
* :mod:`repro.telemetry.export` — Prometheus-text and NDJSON renderers
  (imported lazily; ``from repro.telemetry import export``);
* :mod:`repro.telemetry.bundle` — the run bundle ``--report-dir``
  writes and ``python -m repro.telemetry.bundle DIR`` re-checks.

Both execution backends (sequential and parallel) produce byte-identical
metric exports and trace samples for the same traffic, because every
telemetry counter lives in per-core :class:`~repro.core.stats.CoreStats`
and merges through the same deterministic aggregation path.
"""

from repro.telemetry.funnel import FunnelLayer, build_funnel, check, \
    funnel_table
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    SPAN_HIST_BOUNDS,
    SpanRecorder,
    SpanReport,
    build_span_report,
    chrome_trace_events,
    tree_public,
)
from repro.telemetry.trace import (
    TRACE_EVENTS,
    ConnectionTracer,
    sort_trace_events,
    stable_sample_hash,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FunnelLayer",
    "build_funnel",
    "check",
    "funnel_table",
    "ConnectionTracer",
    "TRACE_EVENTS",
    "sort_trace_events",
    "stable_sample_hash",
    "SpanRecorder",
    "SPAN_HIST_BOUNDS",
    "SpanReport",
    "build_span_report",
    "chrome_trace_events",
    "tree_public",
]
