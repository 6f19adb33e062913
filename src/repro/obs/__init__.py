"""``repro.obs`` — the unified observability layer.

One API for the two questions the paper's evaluation asks of every
component: *how many* (counters and histograms in a
:class:`MetricRegistry`, consumed through the :class:`MetricSource`
protocol) and *how long* (hierarchical :class:`Span` traces collected by
the process-wide :class:`Tracer`).  Around those two primitives:

* cross-process collection (:mod:`repro.obs.collect`) — worker-side
  capture and parent-side merge, so the parallel engine's traces and
  counters survive the process boundary;
* a sampling profiler (:mod:`repro.obs.profile`) — flame-style
  attribution to the innermost active span without per-function probes;
* exporters (:mod:`repro.obs.export`) — JSONL dumps, Chrome
  ``trace_event`` JSON for ``chrome://tracing``/Perfetto, Prometheus
  text exposition, aggregated ``System.telemetry()`` snapshots, and the
  per-phase breakdown tables printed by ``repro replay --telemetry``
  and the Fig. 7/8 benchmark reports.

The package imports nothing from the rest of ``repro`` so any module —
including the lowest-level crypto kernels — can instrument itself
without creating an import cycle.
"""

from repro.obs.collect import (
    capture_task,
    merge_task_telemetry,
    merge_traces,
    register_worker_source,
)
from repro.obs.export import (
    aggregate_spans,
    breakdown_table,
    format_metrics,
    metrics_to_prometheus,
    spans_to_chrome_trace,
    telemetry_snapshot,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    Counter,
    CounterField,
    Histogram,
    MetricRegistry,
    MetricSource,
    SloWindow,
    merge_snapshots,
    quantile_from_samples,
)
from repro.obs.profile import SamplingProfiler, profile
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    disable,
    enable,
    enabled,
    new_trace_id,
    span,
    tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "CounterField",
    "Histogram",
    "MetricRegistry",
    "MetricSource",
    "NULL_SPAN",
    "SamplingProfiler",
    "SloWindow",
    "Span",
    "Tracer",
    "aggregate_spans",
    "breakdown_table",
    "capture_task",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "format_metrics",
    "merge_snapshots",
    "merge_task_telemetry",
    "merge_traces",
    "metrics_to_prometheus",
    "new_trace_id",
    "profile",
    "quantile_from_samples",
    "register_worker_source",
    "span",
    "spans_to_chrome_trace",
    "telemetry_snapshot",
    "tracer",
    "use_tracer",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
