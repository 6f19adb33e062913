"""Outside-in span recorder for the traced pass.

``Recorder.install`` replaces each boundary callable named by
``adapter.trace_targets()`` with a wrapper that records a
``(entry, start, end, parent)`` span; ``remove`` puts the originals back.
Spans are recorded only inside a timed operation (between ``begin`` and
``end``), are kept in memory, and are aggregated after the run:

* a span's *self time* is its duration minus its wrapped children's;
* the root span of every timed operation belongs to the ``harness``
  layer, so self times over all layers sum to the timed wall exactly and
  the harness share is the residual the wrappers do not explain.

One span stack serves every thread.  The load is closed-loop with a
single request in flight, so the store server's spans nest strictly
inside the client RPC that caused them — which is what turns
``RemoteCloudStore`` time minus backing-store time into the ``net``
layer's self time.  The stack is not safe for concurrent timed work:
a span that closes out of order, or outlives its operation, raises.
"""

from __future__ import annotations

import functools
import json
import time
import types
from typing import Any, Dict, List, Optional, Tuple

HARNESS = "harness"

#: (entry id, start, end, parent index or -1)
Span = Tuple[int, float, float, int]


class Recorder:
    def __init__(self) -> None:
        self.entries: List[Tuple[str, str]] = []      # id -> (layer, entry)
        self._entry_ids: Dict[Tuple[str, str], int] = {}
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------------

    def _entry_id(self, layer: str, entry: str) -> int:
        key = (layer, entry)
        if key not in self._entry_ids:
            self._entry_ids[key] = len(self.entries)
            self.entries.append(key)
        return self._entry_ids[key]

    def _traced(self, entry_id: int, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)    # keeps the ecall markers the registry reads
        def traced(*args, **kwargs):
            if not stack:       # not inside a timed operation
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                if stack.pop() != index:
                    raise RuntimeError(
                        "a span closed out of order: timed work overlapped")
                spans[index] = (entry_id, start, end, parent)

        return traced

    def install(self, targets) -> None:
        for layer, entry, owner, attribute in targets:
            raw = vars(owner)[attribute]
            entry_id = self._entry_id(layer, entry)
            if isinstance(raw, classmethod):
                wrapper: Any = classmethod(self._traced(entry_id, raw.__func__))
            elif isinstance(raw, types.FunctionType):
                wrapper = self._traced(entry_id, raw)
            else:
                raise TypeError(f"cannot wrap {owner!r}.{attribute}: {raw!r}")
            self._installed.append((owner, attribute, raw))
            setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    # -- timed operations -------------------------------------------------------

    def begin(self, op_class: str) -> None:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._root = (self._entry_id(HARNESS, op_class), index)
        self._root_start = time.perf_counter()

    def end(self) -> None:
        end = time.perf_counter()
        entry_id, index = self._root
        if self._stack != [index]:
            raise RuntimeError(
                "a span outlived the timed operation that caused it")
        self._stack.pop()
        self.spans[index] = (entry_id, self._root_start, end, -1)

    # -- aggregation ------------------------------------------------------------

    def aggregate(self) -> Dict[str, Any]:
        """Per-entry ``{calls, total_s, self_s}``, per-layer ``self_s`` and
        the traced wall (sum of root spans)."""
        spans = [span for span in self.spans if span is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("a span was opened and never closed")
        child_time = [0.0] * len(spans)
        for entry_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        # Every wrapped boundary reports, reached or not: a predicted
        # zero is a result.
        per_entry: Dict[Tuple[str, str], Dict[str, float]] = {
            key: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for key in self.entries}
        per_layer: Dict[str, float] = {layer: 0.0 for layer, _ in self.entries}
        wall = 0.0
        for index, (entry_id, start, end, parent) in enumerate(spans):
            key = self.entries[entry_id]
            duration = end - start
            own = duration - child_time[index]
            row = per_entry[key]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += own
            per_layer[key[0]] += own
            if parent < 0:
                wall += duration
        return {"entries": per_entry, "layers": per_layer,
                "wall_s": wall, "spans": len(spans)}

    # -- export -----------------------------------------------------------------

    def write_chrome_trace(self, path, max_spans: int = 1000) -> int:
        """Write the first ``max_spans`` spans (whole leading operations)
        in Chrome ``trace_event`` format; returns the number written."""
        events = []
        origin = None
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            entry_id, start, end, parent = span
            if parent < 0 and index >= max_spans:
                break
            if origin is None:
                origin = start
            layer, entry = self.entries[entry_id]
            events.append({
                "name": f"{layer}.{entry}", "cat": layer, "ph": "X",
                "ts": round((start - origin) * 1e6, 1),
                "dur": round((end - start) * 1e6, 1),
                "pid": 1, "tid": 1,
                "args": {"span": index, "parent": parent},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle, separators=(",", ":"))
        return len(events)
