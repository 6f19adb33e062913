"""Cross-process telemetry: worker-side capture, parent-side merge.

The load-bearing invariant: a traced operation reports the same work at
any worker count.  Spans opened inside pool workers (and counters they
bump) must ride back with the task result and merge into the parent
tracer — otherwise ``workers=4`` silently under-reports exactly the
parallel work the trace was meant to explain.
"""

from __future__ import annotations

import json
from collections import Counter as Multiset

import pytest

from repro import obs, quickstart_system
from repro.crypto.rng import DeterministicRng
from repro.obs.collect import (
    capture_task,
    merge_task_telemetry,
    merge_traces,
    register_worker_source,
)
from repro.obs.export import write_chrome_trace
from repro.obs.metrics import MetricRegistry
from repro.obs.spans import Tracer, tracer as global_tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    tr = global_tracer()
    tr.reset()
    tr.disable()
    yield
    tr.reset()
    tr.disable()


def _traced_create_group(workers: int):
    """Create one 1000-user group under tracing; return (span name
    multiset, tid set, merged metrics)."""
    system = quickstart_system(
        partition_capacity=100, params="toy64", workers=workers,
        rng=DeterministicRng(f"collect:{workers}"),
    )
    tr = global_tracer()
    tr.reset()
    obs.enable()
    try:
        system.admin.create_group("g", [f"u{i}" for i in range(1000)])
        spans = tr.spans()
        names = Multiset(span.name for span in spans)
        tids = {span.tid for span in spans}
        metrics = system.telemetry()["metrics"]
        return names, tids, metrics, spans
    finally:
        obs.disable()
        system.close()


#: Pool tasks of the 1000-user create at capacity 100, by worker count:
#: one hash task per partition, one build chunk per worker.
TASKS = {workers: Multiset({"par.task": 10 + workers}) for workers in (1, 2)}


class TestWorkerParity:
    """Acceptance: traced create_group at workers=2 matches serial."""

    @pytest.fixture(scope="class")
    def runs(self):
        serial = _traced_create_group(workers=1)
        parallel = _traced_create_group(workers=2)
        return serial, parallel

    def test_span_name_multisets_identical(self, runs):
        """Every span but the per-task one is identical; the task spans
        are all there, workers' included: ten hash tasks, then one
        partition-build chunk per worker."""
        (serial_names, _, _, _), (par_names, _, _, _) = runs
        assert serial_names - TASKS[1] == par_names - TASKS[2]
        assert serial_names["par.task"] == TASKS[1]["par.task"]
        assert par_names["par.task"] == TASKS[2]["par.task"]

    def test_par_task_totals_count_the_chunks(self, runs):
        (_, _, serial_metrics, _), (_, _, par_metrics, _) = runs
        assert serial_metrics["par.tasks"] == TASKS[1]["par.task"]
        assert par_metrics["par.tasks"] == TASKS[2]["par.task"]
        # Every dispatched task produced one latency observation.
        assert par_metrics["par.task.seconds.count"] == \
            par_metrics["par.tasks"]

    def test_zero_dropped_spans(self, runs):
        (_, _, serial_metrics, _), (_, _, par_metrics, _) = runs
        assert serial_metrics["obs.spans.dropped"] == 0
        assert par_metrics["obs.spans.dropped"] == 0

    def test_worker_spans_carry_worker_lanes(self, runs):
        (_, serial_tids, _, _), (_, par_tids, _, _) = runs
        assert serial_tids == {0}
        # Parent lane plus at least one worker-pid lane.
        assert 0 in par_tids
        assert len(par_tids) >= 2
        assert all(tid >= 0 for tid in par_tids)

    def test_chrome_trace_validates(self, runs, tmp_path):
        """The merged parallel trace renders as well-formed Chrome
        ``trace_event`` JSON (object format, complete events)."""
        (_, _, _, _), (_, par_tids, _, spans) = runs
        path = tmp_path / "trace.json"
        written = write_chrome_trace(spans, path)
        assert written == len(spans)
        trace = json.loads(path.read_text("utf-8"))
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"X", "M"}
        for event in events:
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)
            if event["ph"] == "X":
                assert isinstance(event["ts"], int) and event["ts"] >= 0
                assert isinstance(event["dur"], int) and event["dur"] >= 1
                assert isinstance(event["cat"], str)
        # One thread_name metadata event per lane, naming workers.
        lanes = {event["tid"]: event["args"]["name"] for event in events
                 if event["ph"] == "M" and event["name"] == "thread_name"}
        assert set(lanes) == par_tids
        assert lanes[0] == "main"
        for tid, label in lanes.items():
            if tid != 0:
                assert label == f"worker-{tid}"


class TestTaskCapture:
    def test_capture_swaps_in_fresh_tracer(self):
        parent = global_tracer()
        obs.enable()
        with parent.span("outer"):
            pass  # a parent span the capture must NOT re-export
        capture = capture_task("kernel_x")
        with capture:
            with obs.span("inner.work"):
                pass
            assert global_tracer() is not parent
        assert global_tracer() is parent
        payload = capture.payload()
        names = [row["name"] for row in payload["spans"]]
        assert "outer" not in names
        assert set(names) == {"inner.work", "par.task"}
        assert payload["dropped"] == 0
        assert capture.duration > 0

    def test_payload_records_kernel_and_pid(self):
        import os

        capture = capture_task("kernel_y")
        with capture:
            pass
        payload = capture.payload()
        assert payload["pid"] == os.getpid()
        root = next(row for row in payload["spans"]
                    if row["name"] == "par.task")
        assert root["attrs"]["kernel"] == "kernel_y"

    def test_empty_capture_payload_is_none_only_when_no_spans(self):
        # par.task itself is always recorded, so a payload exists.
        capture = capture_task("kernel_z")
        with capture:
            pass
        assert capture.payload() is not None


class TestMergeTraces:
    def _rows(self, tracer: Tracer):
        return [span.to_dict() for span in tracer.spans()]

    def test_ids_are_remapped_and_links_preserved(self):
        worker = Tracer(enabled=True)
        with worker.span("parent.op"):
            with worker.span("child.op"):
                pass
        target = Tracer(enabled=True)
        target.span("preexisting").__exit__(None, None, None)
        with target.span("dispatch"):
            kept = merge_traces(target, self._rows(worker), tid=4242)
        assert kept == 2
        merged = {span.name: span for span in target.spans()}
        child, parent = merged["child.op"], merged["parent.op"]
        assert child.parent_id == parent.span_id
        assert parent.tid == child.tid == 4242
        # Foreign ids never collide with the target's own.
        ids = [span.span_id for span in target.spans()]
        assert len(ids) == len(set(ids))

    def test_roots_attach_under_active_span_and_absorb_self_time(self):
        worker = Tracer(enabled=True)
        with worker.span("task.root"):
            pass
        rows = self._rows(worker)
        target = Tracer(enabled=True)
        dispatch = target.span("dispatch")
        with dispatch:
            merge_traces(target, rows)
        merged_root = next(span for span in target.spans()
                           if span.name == "task.root")
        assert merged_root.parent_id == dispatch.span_id
        assert merged_root.depth == dispatch.depth + 1
        # The dispatching span's self time excludes the merged work.
        assert dispatch.children_seconds >= merged_root.duration

    def test_counter_deltas_route_to_registered_source(self):
        source = register_worker_source(MetricRegistry())
        counter = source.counter("fake.widgets")
        before = counter.value
        try:
            target = Tracer(enabled=True)
            merge_task_telemetry(
                {"pid": 7, "spans": [],
                 "counters": {"fake.widgets": 3, "unknown.metric": 9},
                 "dropped": 2},
                target=target,
            )
            assert counter.value == before + 3
            # Unknown names are dropped, worker drops carried over.
            assert target.dropped == 2
        finally:
            from repro.obs import collect
            collect._WORKER_SOURCES.remove(source)

    def test_merge_none_payload_is_noop(self):
        target = Tracer(enabled=True)
        assert merge_task_telemetry(None, target=target) == 0
        assert len(target) == 0


class TestPrecompWorkerSource:
    def test_ec_precomp_registry_is_registered(self):
        from repro.ec import precomp_registry
        from repro.obs import collect

        assert precomp_registry in collect._WORKER_SOURCES
