"""Observability substrate: tracing, metrics, structured logging.

``repro.obs`` is the cross-cutting layer the serving stack reports
through (docs/OBSERVABILITY.md):

* **tracing** (:mod:`repro.obs.trace`) — :class:`Tracer` / :class:`Span`
  context managers with monotonic timings, attributes, and parent links;
  a request's ``trace_id`` travels through the gateway's worker-process
  boundary so one request yields one stitched tree even across crashes.
  The default :data:`NULL_TRACER` is free: tracing off costs nothing
  measurable (``benchmarks/bench_obs.py`` enforces <5 %).
* **metrics** (:mod:`repro.obs.metrics`) — a thread-safe
  :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
  histograms with an injectable clock; ``CacheStats`` / ``WorkerStats``
  / ``GatewayStats`` are views over it behind one ``snapshot()``
  protocol.
* **exporters** (:mod:`repro.obs.export`) — JSONL span logs, Chrome
  trace-event JSON (open in ``about:tracing`` / Perfetto), and
  Prometheus-style text exposition; surfaced as ``--trace-out`` /
  ``--metrics-out`` on the ``serve`` / ``batch`` / ``translate`` CLIs.
* **logging** (:mod:`repro.obs.log`) — stdlib logging with a JSON
  formatter under the ``repro.*`` hierarchy, enabled by ``REPRO_LOG``.
* **clocks** (:mod:`repro.obs.clock`) — the injectable monotonic clocks
  every timing component takes, with :class:`ManualClock` as the
  deterministic test seam.
* **telemetry plane** (:mod:`repro.obs.telemetry`) — windowed
  time-series (rate/quantile over the last N seconds), cross-shard
  metric federation (one merged ``/metrics`` view), declarative SLOs
  with multi-window burn-rate alerts (``GET /slo``), and tail-based
  trace sampling under a hard byte cap; bundled per serving scope by
  :class:`~repro.obs.telemetry.TelemetryHub`.

Quickstart::

    from repro.obs import Tracer, write_trace
    from repro.runtime import TranslationService

    tracer = Tracer()
    service = TranslationService(workbook, tracer=tracer)
    service.translate("sum the hours")
    write_trace(tracer, "trace.json")   # -> load in ui.perfetto.dev
"""

from .clock import Clock, ManualClock, monotonic, perf
from .export import (
    chrome_trace_events,
    render_prometheus,
    span_duration_metrics,
    spans_jsonl,
    write_chrome_trace,
    write_metrics,
    write_spans_jsonl,
    write_trace,
)
from .log import configure as configure_logging
from .log import fields, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SupportsSnapshot,
    snapshot_of,
)
from .telemetry import (
    SloEngine,
    SloSpec,
    TailSampler,
    TelemetryHub,
    WindowedCounter,
    WindowedHistogram,
    merge_states,
)
from .trace import (
    DP_STAGES,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    new_trace_id,
)

__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_BUCKETS",
    "DP_STAGES",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SloEngine",
    "SloSpec",
    "Span",
    "SupportsSnapshot",
    "TailSampler",
    "TelemetryHub",
    "Tracer",
    "WindowedCounter",
    "WindowedHistogram",
    "chrome_trace_events",
    "configure_logging",
    "fields",
    "get_logger",
    "merge_states",
    "monotonic",
    "new_trace_id",
    "perf",
    "render_prometheus",
    "snapshot_of",
    "span_duration_metrics",
    "write_chrome_trace",
    "write_metrics",
    "spans_jsonl",
    "write_spans_jsonl",
    "write_trace",
]
