"""Cross-process telemetry collection: capture in workers, merge in the
parent.

The parallel engine (:mod:`repro.par`) ships task kernels to worker
processes.  Spans those kernels open — and counters they bump — land in
the *worker's* interpreter, which the parent's tracer never sees; before
this module existed, a traced run at ``workers=4`` silently under-
reported exactly the parallel work it was meant to explain.  The fix is
a capture/merge pair:

* worker side — :func:`capture_task` runs one task under a fresh,
  enabled :class:`~repro.obs.spans.Tracer` (installed as the process
  global for the duration, so every instrumented call inside the kernel
  records into it) wrapped in a ``par.task`` root span, and snapshots
  the counter deltas of every registry registered via
  :func:`register_worker_source`.  The result is a compact, picklable
  payload riding back with the task result;
* parent side — :func:`merge_task_telemetry` splices the payload's
  spans into the parent tracer (:func:`merge_traces`, with fresh ids
  and the worker pid as the span ``tid`` so trace viewers draw worker
  lanes) and adds the counter deltas into the matching parent
  registries.

A serial run (``workers=1``) opens the same ``par.task`` span inline,
so the span *name multiset* of a traced operation is identical at any
worker count — the invariant the cross-process merge tests pin down.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricRegistry
from repro.obs.spans import Span, Tracer, tracer as _global_tracer, \
    use_tracer

#: Registries whose counters worker processes may touch (process-wide
#: module state such as ``repro.ec.precomp_registry``).  Owning modules
#: register here at import time; both the parent and the forked worker
#: therefore hold the same list, which is what lets the merge route a
#: delta back to the registry it came from.
_WORKER_SOURCES: List[MetricRegistry] = []


def register_worker_source(registry: MetricRegistry) -> MetricRegistry:
    """Mark a process-wide registry's counters as capture/merge eligible.

    Idempotent; returns the registry for decorator-style use.
    """
    if registry not in _WORKER_SOURCES:
        _WORKER_SOURCES.append(registry)
    return registry


class TaskCapture:
    """Context manager recording one worker-side task's telemetry.

    After the ``with`` block, :attr:`duration` holds the task's wall
    time and :meth:`payload` the picklable span/counter bundle (``None``
    when there is nothing to ship).
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.duration = 0.0
        self._tracer = Tracer(enabled=True)
        self._root: Optional[Span] = None
        self._before: Dict[str, float] = {}
        self._swap = None
        self._start = 0.0

    def __enter__(self) -> "TaskCapture":
        for source in _WORKER_SOURCES:
            self._before.update(source.counters_snapshot())
        self._swap = use_tracer(self._tracer)
        self._swap.__enter__()
        self._root = self._tracer.span("par.task", kernel=self.kernel)
        self._root.__enter__()
        self._start = self._root.start
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._root.__exit__(exc_type, exc, tb)
        self.duration = self._root.duration
        self._swap.__exit__(exc_type, exc, tb)
        return None

    def payload(self) -> Optional[Dict[str, Any]]:
        """The picklable capture (``None`` when there is nothing to
        ship)."""
        payload = capture_payload(self._tracer, _WORKER_SOURCES,
                                  self._before)
        if not payload["spans"] and not payload["counters"]:
            return None
        return payload


def capture_payload(capture: Tracer, sources: Iterable[MetricRegistry],
                    before: Dict[str, float]) -> Dict[str, Any]:
    """The one shippable telemetry bundle — worker-pool pickles and wire
    ``Response.telemetry`` alike: ``capture``'s span rows, the counter
    deltas of ``sources`` since the ``before`` snapshot, the capture's
    dropped-span count and the producing pid."""
    deltas: Dict[str, float] = {}
    for source in sources:
        for name, value in source.counters_snapshot().items():
            delta = value - before.get(name, 0)
            if delta:
                deltas[name] = delta
    return {"spans": [span.to_dict() for span in capture.spans()],
            "counters": deltas, "dropped": capture.dropped,
            "pid": os.getpid()}


def carry_dropped(payload: Dict[str, Any], target: Tracer) -> None:
    """Carry a shipped capture's buffer overflow over into ``target``'s
    ``obs.spans.dropped`` so truncation stays visible after a merge."""
    dropped = int(payload.get("dropped") or 0)
    if dropped:
        target.registry.counter("obs.spans.dropped").add(dropped)


def capture_task(kernel: str) -> TaskCapture:
    """Open a :class:`TaskCapture` for one kernel invocation."""
    return TaskCapture(kernel)


def merge_traces(target: Tracer, span_rows: List[Dict[str, Any]],
                 tid: int = 0) -> int:
    """Reconstruct serialized span rows into ``target``.

    Ids are re-allocated from the target's counter (worker ids restart
    at 1 per task and would collide); parent links *within* the payload
    are preserved, and payload roots are attached under the target's
    currently-open span — whose ``children_seconds`` absorbs their
    duration, so per-category self-time totals match a serial run
    instead of double-counting worker wall-clock.  Returns the number
    of spans kept (buffer overflow counts into ``obs.spans.dropped``).
    """
    # Ids first: rows arrive in completion order, so a child's row
    # precedes its parent's — parent links must resolve against the
    # full payload, not the prefix seen so far.
    id_map: Dict[int, int] = {
        row["id"]: target.next_id() for row in span_rows
        if row.get("id") is not None
    }
    active = target.current_span()
    kept = 0
    for row in span_rows:
        span = Span(target, row["name"], row["category"],
                    dict(row.get("attrs") or {}), record=False)
        span.span_id = id_map.get(row.get("id"), 0) or target.next_id()
        span.start = row["start"]
        span.end = row["start"] + row["duration"]
        span.children_seconds = max(0.0, row["duration"] - row["self"])
        span.error = row.get("error")
        span.tid = tid if tid else row.get("tid", 0)
        parent = row.get("parent")
        if parent is not None and parent in id_map:
            span.parent_id = id_map[parent]
            span.depth = row.get("depth", 0)
        elif active is not None:
            # A payload root: hang it off the span that dispatched the
            # task so the tree stays connected across the process gap.
            span.parent_id = active.span_id
            span.depth = active.depth + 1
            active.children_seconds += span.duration
        if target.adopt(span):
            kept += 1
    return kept


def merge_task_telemetry(payload: Optional[Dict[str, Any]],
                         target: Optional[Tracer] = None) -> int:
    """Fold one task's capture payload into this process.

    Spans go to ``target`` (default: the global tracer); counter deltas
    go to whichever registered worker-source registry owns the metric
    name (unknown names are dropped — a worker cannot invent parent
    state).  Worker-side buffer overflow is carried over into the
    parent's ``obs.spans.dropped`` so truncation stays visible after
    the merge.  Returns the number of spans merged.
    """
    if not payload:
        return 0
    if target is None:
        target = _global_tracer()
    carry_dropped(payload, target)
    deltas = payload.get("counters") or {}
    if deltas:
        remaining = dict(deltas)
        for source in _WORKER_SOURCES:
            owned = {name: value for name, value in remaining.items()
                     if name in source}
            if owned:
                source.add_counter_deltas(owned)
                for name in owned:
                    remaining.pop(name)
    return merge_traces(target, payload.get("spans") or [],
                        tid=int(payload.get("pid", 0)))
