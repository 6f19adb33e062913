"""``repro.obs`` — the unified observability layer.

One API for the two questions the paper's evaluation asks of every
component: *how many* (counters and histograms in a
:class:`MetricRegistry`, consumed through the :class:`MetricSource`
protocol) and *how long* (hierarchical :class:`Span` traces collected by
the process-wide :class:`Tracer`).  This package is the
*instrumentation* half — what instrumented code, the enclave included,
links: those two primitives and cross-process collection
(:mod:`repro.obs.collect` — worker-side capture and parent-side merge,
so the parallel engine's traces and counters survive the process
boundary).

The *reporting* half is :mod:`repro.obs.export` — JSONL dumps, Chrome
``trace_event`` JSON for ``chrome://tracing``/Perfetto, Prometheus text
exposition, aggregated ``System.telemetry()`` snapshots, and the
per-phase breakdown tables printed by ``repro replay --telemetry`` and
the Fig. 7/8 benchmark reports.  It is named by the code that reports
and not loaded with this package: a writer the trusted half cannot
import is an egress channel it does not have.

The instrumentation half imports nothing from the rest of ``repro`` so
any module — including the lowest-level crypto kernels — can instrument
itself without creating an import cycle.
"""

from repro.obs.collect import (
    capture_task,
    merge_task_telemetry,
    merge_traces,
    register_worker_source,
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
    "SloWindow",
    "Span",
    "Tracer",
    "capture_task",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "merge_snapshots",
    "merge_task_telemetry",
    "merge_traces",
    "new_trace_id",
    "quantile_from_samples",
    "register_worker_source",
    "span",
    "tracer",
    "use_tracer",
]
