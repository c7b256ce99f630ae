"""``repro.obs`` — unified metrics, tracing, and profiling telemetry.

The observability layer every other subsystem reports into:

* :mod:`repro.obs.metrics` — thread-safe ``Counter``/``Gauge``/
  ``Histogram`` in a mergeable :class:`MetricsRegistry` (snapshots
  travel through the supervisor pipe; the master aggregates them).
* :mod:`repro.obs.tracing` — span-based tracing producing a
  hierarchical timing tree (per-span counts, totals, self time).
* :mod:`repro.obs.export` — pluggable exporters: JSONL event log,
  Prometheus text exposition, console summary.
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` façade the
  trainer, parallel workers, and serving stack accept (``None`` =
  disabled, zero overhead).
* :mod:`repro.obs.spans` — per-request distributed tracing:
  :class:`TraceContext` propagated through the fleet's pipe envelope,
  categorised :class:`SpanEvent` records in a bounded
  :class:`SpanRecorder` per process.
* :mod:`repro.obs.flight` — the tail-sampled
  :class:`FlightRecorder`: complete traces kept for slow / degraded /
  shed / errored requests, dumped into the telemetry tree.
* :mod:`repro.obs.slo` — declared :class:`SloObjective` sets tracked
  by :class:`SloTracker` with multi-window burn-rate alerts.
* :mod:`repro.obs.trace_report` — cross-process trace reconstruction
  and hop-category p99 attribution (``repro trace-report``).
* :mod:`repro.nn.profile` — the opt-in training pass profiler the
  telemetry layer reports from (``repro train --profile-ops``).

See ``docs/observability.md`` for the metric naming scheme and the
exporter formats.
"""

from repro.obs.export import (
    JsonlExporter,
    load_events,
    load_run_state,
    load_slo_summaries,
    load_span_logs,
    load_traces,
    render_console_summary,
    render_prometheus,
)
from repro.obs.flight import FlightRecorder, TraceRecord
from repro.obs.slo import (
    BurnRateAlert,
    SloObjective,
    SloTracker,
    default_serving_slos,
)
from repro.obs.spans import (
    SpanEvent,
    SpanRecorder,
    TraceContext,
    TracingConfig,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    metric_key,
    parse_metric_key,
)
from repro.obs.telemetry import Telemetry, span
from repro.obs.tracing import SpanNode, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "metric_key",
    "parse_metric_key",
    "LATENCY_BUCKETS_MS",
    "SpanNode",
    "Tracer",
    "Telemetry",
    "span",
    "JsonlExporter",
    "load_events",
    "load_run_state",
    "load_slo_summaries",
    "load_span_logs",
    "load_traces",
    "render_prometheus",
    "render_console_summary",
    "TraceContext",
    "SpanEvent",
    "SpanRecorder",
    "TracingConfig",
    "FlightRecorder",
    "TraceRecord",
    "SloObjective",
    "SloTracker",
    "BurnRateAlert",
    "default_serving_slos",
]
