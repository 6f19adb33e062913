"""Telemetry subsystem (repro.obs): spans, metrics, exporters, and the
integration guarantees the rest of the package relies on — span
nesting/self-time invariants, the disabled no-op fast path, registry
reset semantics, the attribute views over the registries, and the
one-crossing/one-commit boundary footprint read through the dotted
metrics."""

import json

import pytest

from repro import obs
from repro.obs import (
    NULL_SPAN,
    Counter,
    CounterField,
    Histogram,
    MetricRegistry,
    MetricSource,
    Span,
    Tracer,
    merge_snapshots,
)
from repro.obs.export import (
    aggregate_spans,
    breakdown_table,
    format_metrics,
    telemetry_snapshot,
    write_jsonl,
)
from tests.conftest import make_system


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_nesting_parent_child(self):
        tr = Tracer(enabled=True)
        with tr.span("outer.a") as outer:
            with tr.span("inner.b") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1
        assert outer.parent_id is None
        # Completion order: children finish first.
        assert [s.name for s in tr.spans()] == ["inner.b", "outer.a"]

    def test_self_time_partitions_duration(self):
        tr = Tracer(enabled=True)
        with tr.span("outer.a") as outer:
            with tr.span("inner.b"):
                pass
            with tr.span("inner.c"):
                pass
        children = sum(s.duration for s in tr.spans()
                       if s.name.startswith("inner"))
        assert outer.children_seconds == pytest.approx(children)
        assert outer.self_seconds == pytest.approx(
            outer.duration - children
        )
        assert outer.self_seconds >= 0.0
        # Parent duration covers its children.
        assert outer.duration >= children

    def test_category_defaults_to_name_prefix(self):
        tr = Tracer(enabled=True)
        with tr.span("cloud.put") as a:
            pass
        with tr.span("cloud.put", category="io") as b:
            pass
        assert a.category == "cloud"
        assert b.category == "io"

    def test_exception_safety(self):
        tr = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tr.span("outer.a"):
                with tr.span("inner.b"):
                    raise ValueError("boom")
        # Both spans closed, stack restored, errors recorded.
        assert tr._stack == []
        by_name = {s.name: s for s in tr.spans()}
        assert by_name["inner.b"].error == "ValueError"
        assert by_name["outer.a"].error == "ValueError"
        # The tracer still works afterwards.
        with tr.span("after.c"):
            pass
        assert len(tr) == 3

    def test_disabled_returns_null_singleton(self):
        tr = Tracer(enabled=False)
        a = tr.span("x.y", attr=1)
        b = tr.span("z.w")
        assert a is NULL_SPAN and b is NULL_SPAN
        with a as s:
            s.set(more=2)
        assert len(tr) == 0

    def test_force_span_times_but_does_not_record(self):
        tr = Tracer(enabled=False)
        span = tr.span("replay.op", force=True)
        assert isinstance(span, Span)
        with span:
            pass
        assert span.duration > 0.0
        assert len(tr) == 0
        tr.enable()
        with tr.span("replay.op", force=True):
            pass
        assert len(tr) == 1

    def test_buffer_bound_and_dropped(self):
        tr = Tracer(enabled=True, max_spans=3)
        for _ in range(5):
            with tr.span("a.b"):
                pass
        assert len(tr) == 3
        assert tr.dropped == 2
        tr.reset()
        assert len(tr) == 0 and tr.dropped == 0
        # reset leaves the enabled flag alone.
        assert tr.enabled

    def test_global_enable_disable_contextmanager(self):
        was = obs.tracer().enabled
        obs.disable()
        try:
            with obs.enabled() as tr:
                assert tr is obs.tracer()
                assert tr.enabled
                with obs.span("test.x"):
                    pass
            assert not obs.tracer().enabled
            assert any(s.name == "test.x" for s in obs.tracer().spans())
        finally:
            obs.tracer().reset()
            if was:
                obs.enable()

    def test_global_span_disabled_is_null(self):
        was = obs.tracer().enabled
        obs.disable()
        try:
            assert obs.span("test.noop") is NULL_SPAN
        finally:
            if was:
                obs.enable()


class TestNullSpanFastPath:
    """Regression: the disabled path must stay allocation-free.

    The hot paths (pairing, ecall dispatch, cloud store) call ``span()``
    unconditionally; if a disabled call ever constructed a real Span or
    touched tracer state, telemetry-off runs would pay for tracing they
    never asked for."""

    def test_disabled_span_allocates_nothing(self, monkeypatch):
        tr = Tracer(enabled=False)

        def _boom(*args, **kwargs):
            raise AssertionError("disabled span() constructed a Span")

        monkeypatch.setattr(Span, "__init__", _boom)
        for _ in range(100):
            assert tr.span("hot.path") is NULL_SPAN

    def test_disabled_span_touches_no_tracer_state(self):
        tr = Tracer(enabled=False)
        for _ in range(50):
            with tr.span("hot.path"):
                pass
        assert len(tr) == 0
        assert tr.dropped == 0
        assert tr.current_span() is None
        tr.enable()
        with tr.span("first.real") as real:
            pass
        # Disabled calls consumed no span ids: the first recorded span
        # still gets id 1.
        assert real.span_id == 1

    def test_global_disabled_path_is_singleton(self, monkeypatch):
        was = obs.tracer().enabled
        obs.disable()

        def _boom(*args, **kwargs):
            raise AssertionError("disabled global span() allocated")

        monkeypatch.setattr(Span, "__init__", _boom)
        try:
            assert obs.span("a.b") is obs.span("c.d") is NULL_SPAN
        finally:
            if was:
                obs.enable()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_registry_counters_and_reset(self):
        reg = MetricRegistry()
        c = reg.counter("a.b")
        assert reg.counter("a.b") is c  # idempotent
        c.add()
        c.add(4)
        assert reg.snapshot() == {"a.b": 5}
        reg.reset()
        assert reg.snapshot() == {"a.b": 0}

    def test_registry_histogram_snapshot(self):
        reg = MetricRegistry()
        h = reg.histogram("a.lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = reg.snapshot()
        assert snap["a.lat.count"] == 3
        assert snap["a.lat.total"] == pytest.approx(6.0)
        assert snap["a.lat.min"] == 1.0
        assert snap["a.lat.max"] == 3.0
        assert snap["a.lat.mean"] == pytest.approx(2.0)
        reg.reset()
        assert reg.snapshot()["a.lat.count"] == 0

    def test_histogram_quantiles_in_snapshot(self):
        reg = MetricRegistry()
        h = reg.histogram("a.lat")
        for v in range(1, 101):  # 1..100, well under the reservoir size
            h.observe(float(v))
        snap = reg.snapshot()
        assert snap["a.lat.p50"] == pytest.approx(50.5)
        assert snap["a.lat.p95"] == pytest.approx(95.05)
        assert snap["a.lat.p99"] == pytest.approx(99.01)

    def test_histogram_reservoir_is_bounded(self):
        from repro.obs.metrics import Histogram

        h = Histogram("a.lat")
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert len(h.samples()) == h._reservoir_size
        # The sampled median still lands near the true one.
        assert 2_000 < h.quantile(0.5) < 8_000

    def test_histogram_reservoir_is_deterministic(self):
        from repro.obs.metrics import Histogram

        def fill(name):
            h = Histogram(name)
            for v in range(5000):
                h.observe(float(v))
            return h.samples()

        assert fill("same.name") == fill("same.name")

    def test_quantile_from_samples(self):
        from repro.obs.metrics import quantile_from_samples

        assert quantile_from_samples([], 0.5) == 0.0
        assert quantile_from_samples([7.0], 0.95) == 7.0
        assert quantile_from_samples([1.0, 2.0, 3.0, 4.0], 0.5) \
            == pytest.approx(2.5)
        assert quantile_from_samples([4.0, 1.0, 3.0, 2.0], 1.0) == 4.0
        assert quantile_from_samples([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0

    def test_gauge_survives_reset(self):
        reg = MetricRegistry()
        state = {"n": 7}
        reg.gauge("a.size", lambda: state["n"])
        assert reg.snapshot()["a.size"] == 7
        reg.reset()
        state["n"] = 9
        assert reg.snapshot()["a.size"] == 9

    def test_prefix(self):
        reg = MetricRegistry(prefix="sgx")
        reg.counter("crossings").add()
        assert reg.snapshot() == {"sgx.crossings": 1}
        assert "sgx.crossings" in reg

    def test_registry_is_metric_source(self):
        assert isinstance(MetricRegistry(), MetricSource)

    def test_counter_field_shim(self):
        class Shim:
            requests = CounterField("x.requests")

            def __init__(self):
                self.registry = MetricRegistry()

        shim = Shim()
        assert shim.requests == 0
        shim.requests += 3
        assert shim.requests == 3
        assert shim.registry.snapshot()["x.requests"] == 3
        shim.requests = 0
        assert shim.registry.snapshot()["x.requests"] == 0

    def test_merge_snapshots_later_wins(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("k").set(1)
        a.counter("only.a").set(5)
        b.counter("k").set(2)
        merged = merge_snapshots([a, b])
        assert merged == {"k": 2, "only.a": 5}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def _make_trace():
    tr = Tracer(enabled=True)
    with tr.span("sgx.ecall", ecall="create_group"):
        with tr.span("crypto.pair"):
            pass
    with pytest.raises(RuntimeError):
        with tr.span("cloud.put"):
            raise RuntimeError("nope")
    return tr


class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        tr = _make_trace()
        path = tmp_path / "spans.jsonl"
        assert write_jsonl(tr.spans(), path) == 3
        rows = [json.loads(line)
                for line in path.read_text("utf-8").splitlines()]
        assert [r["name"] for r in rows] == \
            ["crypto.pair", "sgx.ecall", "cloud.put"]
        ecall = next(r for r in rows if r["name"] == "sgx.ecall")
        assert ecall["attrs"] == {"ecall": "create_group"}
        assert ecall["self"] <= ecall["duration"]
        assert next(r for r in rows if r["name"] == "cloud.put")["error"] \
            == "RuntimeError"

    def test_aggregate_spans(self):
        tr = _make_trace()
        agg = aggregate_spans(tr.spans())
        assert set(agg["categories"]) == {"sgx", "crypto", "cloud"}
        assert agg["categories"]["sgx"]["count"] == 1
        assert agg["errors"] == 1
        # Self times sum to total wall-clock across the tree.
        roots = [s for s in tr.spans() if s.parent_id is None]
        total_self = sum(c["self_s"] for c in agg["categories"].values())
        assert total_self == pytest.approx(
            sum(s.duration for s in roots)
        )

    def test_breakdown_table(self):
        tr = _make_trace()
        lines = breakdown_table(tr.spans())
        text = "\n".join(lines)
        assert "category" in lines[0]
        for cat in ("sgx", "crypto", "cloud"):
            assert cat in text
        assert "closed on an exception" in text  # 1 failed span reported
        assert breakdown_table([]) == \
            ["(no spans recorded — is telemetry enabled?)"]

    def test_telemetry_snapshot_shape(self):
        reg = MetricRegistry()
        reg.counter("a.b").add()
        tr = _make_trace()
        snap = telemetry_snapshot([reg], tracer=tr)
        assert snap["metrics"]["a.b"] == 1
        # The tracer's own health registry rides along: span-loss and
        # buffer occupancy are always visible in the snapshot.
        assert snap["metrics"]["obs.spans.dropped"] == 0
        assert snap["metrics"]["obs.spans.buffered"] == 3
        assert snap["trace"]["enabled"] is True
        assert snap["trace"]["spans"] == 3
        assert snap["trace"]["errors"] == 1

    def test_format_metrics(self):
        lines = format_metrics({"b.y": 2, "a.x": 1})
        assert lines[0].startswith("a.x")
        assert lines[1].startswith("b.y")

    def test_breakdown_table_has_quantile_columns(self):
        tr = _make_trace()
        lines = breakdown_table(tr.spans())
        assert "p50" in lines[0] and "p95" in lines[0]

    def test_prometheus_exposition(self):
        from repro.obs.export import metrics_to_prometheus

        metrics = {
            "sgx.crossings": 5,
            "par.task.seconds.count": 4,
            "par.task.seconds.total": 2.0,
            "par.task.seconds.mean": 0.5,
            "par.task.seconds.min": 0.25,
            "par.task.seconds.max": 1.0,
            "par.task.seconds.p50": 0.5,
            "par.task.seconds.p95": 0.9,
            "par.task.seconds.p99": 0.99,
            # A lone .count counter is NOT a histogram summary.
            "replay.decrypt.count": 3,
        }
        text = metrics_to_prometheus(metrics)
        assert "# TYPE repro_sgx_crossings gauge" in text
        assert "repro_sgx_crossings 5" in text
        assert "# TYPE repro_par_task_seconds summary" in text
        assert 'repro_par_task_seconds{quantile="0.5"} 0.5' in text
        assert 'repro_par_task_seconds{quantile="0.95"} 0.9' in text
        assert "repro_par_task_seconds_sum 2" in text
        assert "repro_par_task_seconds_count 4" in text
        assert "repro_par_task_seconds_max 1" in text
        assert "repro_replay_decrypt_count 3" in text
        assert "repro_replay_decrypt summary" not in text
        assert text.endswith("\n")

    def test_chrome_trace_object_format(self):
        from repro.obs.export import spans_to_chrome_trace

        tr = _make_trace()
        trace = spans_to_chrome_trace(tr.spans(), process_name="demo")
        events = trace["traceEvents"]
        span_events = [e for e in events if e["ph"] == "X"]
        assert len(span_events) == len(tr.spans())
        for event in span_events:
            assert event["dur"] >= 1  # minimum 1 µs, viewers need > 0
            assert "self_us" in event["args"]
        process_meta = next(e for e in events
                            if e["ph"] == "M"
                            and e["name"] == "process_name")
        assert process_meta["args"]["name"] == "demo"
        # The failed span carries its error class in args.
        assert any(e["args"].get("error") for e in span_events)


class TestExporterEdgeCases:
    def test_prometheus_empty_registry(self):
        from repro.obs.export import metrics_to_prometheus

        text = metrics_to_prometheus({})
        assert text == "\n"
        registry = MetricRegistry()
        assert metrics_to_prometheus(registry.snapshot()) == "\n"

    def test_histogram_quantiles_exact_below_reservoir(self):
        """With fewer samples than the reservoir holds, quantiles are
        computed over *all* samples — no sampling error."""
        h = Histogram("exact")
        for v in range(1, 101):    # 100 < RESERVOIR_SIZE
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["exact.count"] == 100
        assert snap["exact.min"] == 1.0 and snap["exact.max"] == 100.0
        assert abs(snap["exact.p50"] - 50.5) < 1.0
        assert snap["exact.p95"] >= 95.0
        assert snap["exact.p99"] >= 99.0

    def test_histogram_merge_is_deterministic(self):
        """Merging the same parts in the same order gives byte-identical
        snapshots: the reservoir's RNG is keyed by name, not time."""
        def build():
            target = Histogram("merge.target")
            for part_index in range(3):
                part = Histogram(f"part{part_index}")
                for v in range(500):
                    part.observe(float(v + 1000 * part_index))
                target.merge(part)
            return target.snapshot()

        assert build() == build()

    def test_histogram_merge_aggregates_under_permutation(self):
        """Count/total/min/max are order-independent even when the
        sampled quantiles differ across merge orders."""
        import itertools as it

        parts = []
        for i in range(3):
            part = Histogram(f"perm{i}")
            for v in range(400):
                part.observe(float(v + 1000 * i))
            parts.append(part)
        aggregates = set()
        for order in it.permutations(range(3)):
            target = Histogram("perm.target")
            for i in order:
                target.merge(parts[i])
            snap = target.snapshot()
            aggregates.add((snap["perm.target.count"],
                            snap["perm.target.total"],
                            snap["perm.target.min"],
                            snap["perm.target.max"]))
        assert len(aggregates) == 1
        assert aggregates.pop() == (1200, sum(range(400)) * 3.0
                                    + 400 * (1000.0 + 2000.0),
                                    0.0, 2399.0)

    def test_chrome_trace_connection_lanes(self):
        """Negative tids render as conn-N lanes, positive as worker-N."""
        from repro.obs.export import spans_to_chrome_trace

        tr = Tracer(enabled=True)
        with tr.span("net.rpc.store.get", "net"):
            pass
        spans = tr.spans()
        spans[0].tid = -2
        extra = Tracer(enabled=True)
        with extra.span("cloud.put", "cloud"):
            pass
        worker = extra.spans()[0]
        worker.tid = 41
        trace = spans_to_chrome_trace(spans + [worker])
        lanes = {e["tid"]: e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert lanes[-2] == "conn-2"
        assert lanes[41] == "worker-41"


class TestSloWindow:
    def test_counts_and_quantiles(self):
        from repro.obs import SloWindow

        w = SloWindow("store.get", size=8)
        for ms in (1.0, 2.0, 3.0, 4.0):
            w.observe(ms)
        w.observe(100.0, ok=False)
        snap = w.snapshot()
        assert snap["count"] == 5 and snap["errors"] == 1
        assert snap["window"] == 5
        assert snap["error_rate"] == pytest.approx(0.2)
        assert snap["max_ms"] == 100.0
        assert snap["p50_ms"] == pytest.approx(3.0)

    def test_window_slides_but_lifetime_counts_do_not(self):
        from repro.obs import SloWindow

        w = SloWindow("m", size=4)
        for i in range(10):
            w.observe(float(i), ok=(i % 2 == 0))
        snap = w.snapshot()
        assert snap["count"] == 10 and snap["errors"] == 5
        assert snap["window"] == 4
        # Only the last 4 latencies are in the window: 6,7,8,9.
        assert snap["max_ms"] == 9.0 and snap["p50_ms"] >= 6.0

    def test_reset(self):
        from repro.obs import SloWindow

        w = SloWindow("m")
        w.observe(5.0, ok=False)
        w.reset()
        snap = w.snapshot()
        assert snap["count"] == 0 and snap["window"] == 0
        assert snap["error_rate"] == 0.0


# ---------------------------------------------------------------------------
# Integration: the deployment's metric surfaces
# ---------------------------------------------------------------------------

class TestSystemTelemetry:
    def test_pipeline_mutation_is_one_crossing_one_commit(self):
        """Regression: an admin mutation costs exactly one enclave
        crossing and one cloud commit — asserted through the dotted
        metrics rather than the attribute views."""
        system = make_system("obs-pipeline", capacity=4)
        system.admin.create_group("g", ["a", "b", "c"])
        before = system.telemetry()["metrics"]
        system.admin.add_user("g", "d")
        after = system.telemetry()["metrics"]
        assert after["sgx.crossings"] - before["sgx.crossings"] == 1
        assert after["cloud.batch_commits"] - before["cloud.batch_commits"] \
            == 1
        assert after["admin.plans_committed"] \
            - before["admin.plans_committed"] == 1

    def test_legacy_accessors_match_dotted_snapshot(self):
        system = make_system("obs-shims", capacity=4)
        system.admin.create_group("g", ["a", "b", "c", "d", "e"])
        client = system.make_client("g", "a")
        client.sync()
        client.current_group_key()
        metrics = system.telemetry()["metrics"]
        # Attribute views and the consolidated registry agree.
        assert system.enclave.meter.crossings == metrics["sgx.crossings"]
        assert system.enclave.meter.ecalls == metrics["sgx.ecalls"]
        assert system.cloud.metrics.requests == metrics["cloud.requests"]
        assert system.cloud.metrics.bytes_in == metrics["cloud.bytes_in"]
        assert system.admin.metrics.users_added \
            == metrics["admin.users_added"]
        assert client.decrypt_count == metrics["client.decrypts"]
        # So do the per-source registries it is merged from.
        assert system.cloud.metrics.registry.snapshot()["cloud.requests"] \
            == metrics["cloud.requests"]
        assert system.enclave.meter.registry.snapshot()["sgx.crossings"] \
            == metrics["sgx.crossings"]

    def test_estimated_cycles_gauge(self):
        system = make_system("obs-cycles", capacity=4)
        system.admin.create_group("g", ["a"])
        metrics = system.telemetry()["metrics"]
        assert metrics["sgx.estimated_cycles"] \
            == metrics["sgx.crossings"] * 8_000
        assert system.enclave.meter.estimated_cycles \
            == metrics["sgx.estimated_cycles"]

    def test_reset_metrics(self):
        system = make_system("obs-reset", capacity=4)
        system.admin.create_group("g", ["a", "b"])
        assert system.telemetry()["metrics"]["sgx.crossings"] > 0
        system.reset_metrics()
        metrics = system.telemetry()["metrics"]
        assert metrics["sgx.crossings"] == 0
        assert metrics["cloud.requests"] == 0
        assert metrics["admin.groups_created"] == 0
        # Gauges derive from live state, not counters: the cache still
        # holds the group after a metric reset.
        assert metrics["admin.cached_groups"] == 1

    def test_spans_cover_the_hot_boundaries(self):
        system = make_system("obs-spans", capacity=4)
        with obs.enabled() as tr:
            tr.reset()
            system.admin.create_group("g", ["a", "b", "c"])
            client = system.make_client("g", "a")
            client.sync()
            client.current_group_key()
            categories = {s.category for s in tr.spans()}
            names = {s.name for s in tr.spans()}
        tr.reset()
        assert {"sgx", "cloud", "crypto", "admin", "client"} <= categories
        assert "sgx.batch" in names or "sgx.ecall" in names
        assert "cloud.commit" in names
        assert "admin.plan" in names
        assert "client.decrypt" in names
