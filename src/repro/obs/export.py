"""Trace and metric exporters: JSONL and Chrome-trace dumps, Prometheus
text exposition, aggregates, breakdown tables.

Consumers and their formats:

* machine post-processing — :func:`write_jsonl` emits one JSON object
  per span, in completion order (``id``, ``parent``, ``name``,
  ``category``, ``depth``, ``start``, ``duration``, ``self``, ``error``,
  ``tid``, ``attrs``);
* trace viewers — :func:`spans_to_chrome_trace` /
  :func:`write_chrome_trace` emit the Chrome ``trace_event`` JSON object
  format (complete ``"X"`` events), loadable in ``chrome://tracing`` and
  Perfetto; worker-side spans merged by ``obs.collect`` carry their pid
  as the ``tid``, so each worker renders as its own lane;
* scrapers — :func:`metrics_to_prometheus` renders any dotted-name
  metric snapshot in the Prometheus text exposition format;
* programmatic snapshots — :func:`aggregate_spans` rolls spans up into
  per-category and per-name totals (count / total seconds / self
  seconds / p50 / p95), and :func:`telemetry_snapshot` combines that
  with the merged metric sources into the dict ``System.telemetry()``
  returns;
* humans — :func:`breakdown_table` renders the crossing-vs-cloud-vs-
  crypto split the Fig. 7/8 reports and ``repro replay --telemetry``
  print.

Self time is the aggregation currency: a crypto kernel runs *inside* an
enclave crossing which runs *inside* a replayed operation, so summing
durations per category would triple-count.  Self seconds (duration minus
child-span time) partition the wall clock exactly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import MetricSource, merge_snapshots, \
    quantile_from_samples
from repro.obs.spans import Span, Tracer, tracer as _global_tracer
from repro.errors import ValidationError


def write_jsonl(spans: Iterable[Span], path) -> int:
    """Write the JSONL trace dump; returns the number of spans written."""
    rows = [json.dumps(span.to_dict(), sort_keys=True) for span in spans]
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(row + "\n")
    return len(rows)


def aggregate_spans(spans: Iterable[Span]) -> Dict[str, Any]:
    """Roll spans up into per-category and per-name summaries.

    Returns ``{"categories": {cat: {count, total_s, self_s, p50_s,
    p95_s}}, "names": {name: {count, total_s, self_s, max_s, p50_s,
    p95_s}}, "errors": n}``.  ``self_s`` sums to total traced wall time
    across categories; the quantiles are over span *durations*.
    """
    categories: Dict[str, Dict[str, float]] = {}
    names: Dict[str, Dict[str, float]] = {}
    cat_durations: Dict[str, List[float]] = {}
    name_durations: Dict[str, List[float]] = {}
    errors = 0
    for span in spans:
        if span.error is not None:
            errors += 1
        cat = categories.setdefault(
            span.category, {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        cat["count"] += 1
        cat["total_s"] += span.duration
        cat["self_s"] += span.self_seconds
        cat_durations.setdefault(span.category, []).append(span.duration)
        name = names.setdefault(
            span.name,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0},
        )
        name["count"] += 1
        name["total_s"] += span.duration
        name["self_s"] += span.self_seconds
        name["max_s"] = max(name["max_s"], span.duration)
        name_durations.setdefault(span.name, []).append(span.duration)
    for key, row in categories.items():
        row["p50_s"] = quantile_from_samples(cat_durations[key], 0.50)
        row["p95_s"] = quantile_from_samples(cat_durations[key], 0.95)
    for key, row in names.items():
        row["p50_s"] = quantile_from_samples(name_durations[key], 0.50)
        row["p95_s"] = quantile_from_samples(name_durations[key], 0.95)
    return {"categories": categories, "names": names, "errors": errors}


def telemetry_snapshot(sources: Iterable[MetricSource] = (),
                       tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """The aggregated observability snapshot behind ``System.telemetry()``.

    ``{"metrics": {dotted name: value}, "trace": {"enabled", "spans",
    "dropped", "categories", "names", "errors"}}``.  The trace section
    summarizes whatever the tracer has collected so far (possibly from a
    now-disabled tracer — spans survive ``disable()``).  The tracer's
    own registry (``obs.spans.dropped``, ``obs.spans.buffered``) is
    merged into the metrics section, so buffer overflow is visible in
    the flat metric view too, not only to readers of the trace summary.
    """
    snapshot: Dict[str, Any] = {"metrics": merge_snapshots(sources)}
    if tracer is None:
        tracer = _global_tracer()
    snapshot["metrics"].update(tracer.registry.snapshot())
    spans = tracer.spans()
    trace: Dict[str, Any] = {
        "enabled": tracer.enabled,
        "spans": len(spans),
        "dropped": tracer.dropped,
    }
    if spans:
        trace.update(aggregate_spans(spans))
    snapshot["trace"] = trace
    return snapshot


# ---------------------------------------------------------------------------
# Chrome trace_event JSON (chrome://tracing, Perfetto)
# ---------------------------------------------------------------------------

def spans_to_chrome_trace(spans: Iterable[Span],
                          process_name: str = "repro") -> Dict[str, Any]:
    """Render spans in the Chrome ``trace_event`` JSON *object format*.

    Every span becomes one complete (``"ph": "X"``) event: ``ts``/``dur``
    in integer microseconds on the span's ``tid`` lane (0 = the tracing
    process, worker pid for spans merged from the parallel engine,
    negative lanes for server-side spans shipped back per network
    connection).  Metadata events name the process and each lane.  The
    returned dict serializes directly with ``json.dump`` and loads
    unmodified in ``chrome://tracing`` and https://ui.perfetto.dev.
    """
    events: List[Dict[str, Any]] = []
    tids = set()
    for span in spans:
        tid = span.tid
        tids.add(tid)
        args: Dict[str, Any] = {key: value
                                for key, value in span.attrs.items()}
        args["self_us"] = int(span.self_seconds * 1e6)
        if span.error is not None:
            args["error"] = span.error
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": int(span.start * 1e6),
            "dur": max(1, int(span.duration * 1e6)),
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    metadata: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    for tid in sorted(tids):
        if tid == 0:
            label = "main"
        elif tid < 0:
            label = f"conn-{-tid}"
        else:
            label = f"worker-{tid}"
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": label},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path,
                       process_name: str = "repro") -> int:
    """Write the Chrome trace JSON; returns the number of span events."""
    trace = spans_to_chrome_trace(spans, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True, default=str)
    return sum(1 for event in trace["traceEvents"]
               if event["ph"] == "X")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prometheus_name(dotted: str, prefix: str) -> str:
    sanitized = "".join(
        char if char.isalnum() or char == "_" else "_"
        for char in dotted.replace(".", "_")
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized

#: Histogram-snapshot suffixes folded into one Prometheus family:
#: quantile keys become ``{quantile="..."}``-labelled summary samples,
#: count/total map to the summary's ``_count``/``_sum`` series.
_QUANTILE_SUFFIXES = {"p50": "0.5", "p95": "0.95", "p99": "0.99"}


def metrics_to_prometheus(metrics: Mapping[str, float],
                          prefix: str = "repro_") -> str:
    """Render a dotted-name snapshot in Prometheus text exposition.

    Histogram snapshot keys (``name.count/.total/.p50/...``) are folded
    into one summary family per histogram; everything else becomes an
    untyped gauge.  Names are sanitized (`.` → `_`) and prefixed.
    """
    summaries: Dict[str, Dict[str, float]] = {}
    scalars: Dict[str, float] = {}
    for name, value in metrics.items():
        base, _, suffix = name.rpartition(".")
        if base and suffix in ("count", "total", "min", "max", "mean",
                               "p50", "p95", "p99"):
            summaries.setdefault(base, {})[suffix] = value
        else:
            scalars[name] = value
    # A histogram snapshot always carries count+total+mean; a lone
    # ``foo.count`` counter is a scalar, not a summary.
    for base in list(summaries):
        if not {"count", "total", "mean"} <= set(summaries[base]):
            for suffix, value in summaries.pop(base).items():
                scalars[f"{base}.{suffix}"] = value
    lines: List[str] = []
    for name in sorted(scalars):
        metric = _prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prometheus_value(scalars[name])}")
    for base in sorted(summaries):
        family = _prometheus_name(base, prefix)
        values = summaries[base]
        lines.append(f"# TYPE {family} summary")
        for suffix, quantile in _QUANTILE_SUFFIXES.items():
            if suffix in values:
                lines.append(
                    f'{family}{{quantile="{quantile}"}} '
                    f"{_prometheus_value(values[suffix])}"
                )
        lines.append(f"{family}_sum {_prometheus_value(values['total'])}")
        lines.append(
            f"{family}_count {_prometheus_value(values['count'])}"
        )
        for extreme in ("min", "max"):
            if extreme in values:
                metric = f"{family}_{extreme}"
                lines.append(f"# TYPE {metric} gauge")
                lines.append(
                    f"{metric} {_prometheus_value(values[extreme])}"
                )
    return "\n".join(lines) + "\n"


def _prometheus_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def write_prometheus(metrics: Mapping[str, float], path,
                     prefix: str = "repro_") -> int:
    """Write the text exposition dump; returns the line count."""
    text = metrics_to_prometheus(metrics, prefix=prefix)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")


def _format_seconds(seconds: float) -> str:
    if seconds >= 1:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} µs"


def breakdown_table(spans: Iterable[Span],
                    by: str = "category") -> List[str]:
    """Render the per-phase time breakdown as aligned text lines.

    ``by="category"`` gives the crossing-vs-cloud-vs-crypto split;
    ``by="name"`` the finer per-instrumentation-point table.  Rows are
    sorted by self time, descending; the share column is each row's self
    time over the summed self time (i.e. of the traced wall clock).
    """
    summary = aggregate_spans(spans)
    if by == "category":
        rows_data = summary["categories"]
        headers = ["category", "count", "total", "self", "p50", "p95",
                   "share"]
    elif by == "name":
        rows_data = summary["names"]
        headers = ["span", "count", "total", "self", "p50", "p95",
                   "share"]
    else:
        raise ValidationError(f"unknown breakdown axis {by!r}")
    grand_self = sum(row["self_s"] for row in rows_data.values()) or 1.0
    rows = [
        [key, str(int(row["count"])), _format_seconds(row["total_s"]),
         _format_seconds(row["self_s"]),
         _format_seconds(row["p50_s"]), _format_seconds(row["p95_s"]),
         f"{100.0 * row['self_s'] / grand_self:.1f}%"]
        for key, row in sorted(rows_data.items(),
                               key=lambda item: -item[1]["self_s"])
    ]
    if not rows:
        return ["(no spans recorded — is telemetry enabled?)"]
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i])
                               for i, c in enumerate(row)))
    if summary["errors"]:
        lines.append(f"({summary['errors']} span(s) closed on an exception)")
    return lines


def format_metrics(metrics: Mapping[str, float]) -> List[str]:
    """Aligned ``name  value`` lines for a dotted-name metric snapshot."""
    if not metrics:
        return ["(no metrics)"]
    width = max(len(name) for name in metrics)
    lines = []
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, float) and not value.is_integer():
            rendered = f"{value:.6f}"
        else:
            rendered = str(int(value))
        lines.append(f"{name.ljust(width)}  {rendered}")
    return lines
