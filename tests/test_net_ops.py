"""Observability over the network: trace propagation + ops surface.

Covers the distributed-tracing contract (client trace context on the
wire, server handler spans shipped back and stitched onto negative
per-connection lanes, one shared trace id), the read-only operational
endpoints (``ops.stats`` / ``ops.health``) and their CLI consumers, the
per-request log, and the invariant that none of it perturbs store
bytes.
"""

import json

import pytest

from repro import obs
from repro.cloud import CloudBatch, CloudStore
from repro.errors import NotFoundError
from repro.net import RemoteCloudStore, RequestLog, ServerThread
from repro.net import wire
from repro.workloads.chaos import cloud_digest


@pytest.fixture
def served():
    inner = CloudStore()
    server = ServerThread(inner)
    url = server.start()
    store = RemoteCloudStore(url)
    yield inner, server, store
    store.close()
    server.stop()


@pytest.fixture
def clean_tracer():
    tracer = obs.tracer()
    tracer.reset()
    yield tracer
    tracer.disable()
    tracer.reset()


# ---------------------------------------------------------------------------
# Feature negotiation + ops surface
# ---------------------------------------------------------------------------

class TestOpsSurface:
    def test_hello_advertises_trace_and_ops(self, served):
        _, _, store = served
        store.head_sequence()          # forces connect + hello
        assert wire.FEATURE_TRACE in store.server_features
        assert wire.FEATURE_OPS in store.server_features

    def test_server_stats_snapshot(self, served):
        _, _, store = served
        store.put("/g/a", b"x")
        store.get("/g/a")
        with pytest.raises(NotFoundError):
            store.get("/missing")
        stats = store.server_stats()

        assert stats["server"] == "repro-store"
        assert stats["protocol"] == wire.PROTOCOL_VERSION
        assert stats["uptime_s"] >= 0.0
        assert stats["connections"]["active"] >= 1
        assert stats["connections"]["total"] >= 1
        assert stats["requests"]["total"] >= 3
        assert stats["requests"]["errors"] >= 1
        assert stats["requests"]["bytes_in"] > 0
        assert stats["requests"]["bytes_out"] > 0
        # Rolling SLO windows, per method and combined.
        methods = stats["slo"]["methods"]
        assert "store.commit" in methods and "store.get" in methods
        get_window = methods["store.get"]
        assert get_window["count"] == 2 and get_window["errors"] == 1
        assert get_window["p50_ms"] >= 0.0
        assert stats["slo"]["all"]["count"] >= 3
        # Server-side counters, including per-method error counters.
        counters = stats["metrics"]
        assert counters["net.server.requests"] >= 3
        assert counters["net.server.method.store.get.errors"] == 1
        assert counters["net.server.method.store.get.requests"] == 2
        assert counters["net.server.connections.active"] >= 1
        # No request log configured on this server.
        assert stats["request_log"] == {"enabled": False}

    def test_server_health_ok(self, served):
        _, _, store = served
        store.put("/g/a", b"x")
        health = store.server_health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0
        assert health["checks"]["store"] == "ok"
        assert health["checks"]["head_sequence"] == 1

    def test_stats_visible_to_plain_clients(self, served):
        """ops.* are read-only and version-1: no handshake changes, so
        an untraced client can call them too."""
        _, _, store = served
        store.trace_propagation = False
        store.put("/g/a", b"x")
        stats = store.server_stats()
        assert stats["requests"]["total"] >= 1


# ---------------------------------------------------------------------------
# Distributed tracing across the wire
# ---------------------------------------------------------------------------

class TestTraceStitching:
    def test_server_spans_stitched_under_client_rpc(self, served,
                                                    clean_tracer):
        _, _, store = served
        clean_tracer.enable()
        store.put("/g/a", b"payload")
        store.get("/g/a")
        clean_tracer.disable()

        spans = clean_tracer.spans()
        by_id = {s.span_id: s for s in spans}
        client = [s for s in spans if s.name.startswith("net.rpc.")]
        server = [s for s in spans if s.name.startswith("net.server.")]
        assert client and server
        # One trace id across both processes.
        trace_id = clean_tracer.trace_id
        for s in server:
            assert s.attrs["trace_id"] == trace_id
            # Negative per-connection lane.
            assert s.tid == -store.lane
            # Parent link lands on the client's RPC span.
            parent = by_id[s.parent_id]
            assert parent.name.startswith("net.rpc.")
            assert parent.tid == 0
        # The store's own work is captured server-side and nests under
        # the handler span.
        cloud_spans = [s for s in spans
                       if s.name.startswith("cloud.") and s.tid < 0]
        assert cloud_spans
        for s in cloud_spans:
            assert by_id[s.parent_id].name.startswith("net.server.")
        merged = store.metrics.registry.counters_snapshot()
        assert merged["net.rpc.remote_spans"] == len(
            [s for s in spans if s.tid == -store.lane])

    def test_error_responses_ship_spans_too(self, served, clean_tracer):
        _, _, store = served
        clean_tracer.enable()
        with pytest.raises(NotFoundError):
            store.get("/missing")
        clean_tracer.disable()
        server = [s for s in clean_tracer.spans()
                  if s.name.startswith("net.server.")]
        assert server
        assert any(s.error == "NotFoundError" for s in server)

    def test_server_counter_deltas_kept_separate(self, served,
                                                 clean_tracer):
        _, _, store = served
        clean_tracer.enable()
        store.put("/g/a", b"x")
        store.get("/g/a")
        clean_tracer.disable()
        shipped = store.server_metrics.snapshot()
        assert shipped.get("cloud.requests", 0) == 2
        # The client-side mirror keeps its own count of the same two
        # operations: if server deltas were folded in, it would read 4.
        client_counters = store.metrics.registry.counters_snapshot()
        assert client_counters["cloud.requests"] == 2

    def test_disabled_tracing_sends_no_context(self, served,
                                               clean_tracer):
        """Tracing off -> no trace key on the wire, no telemetry back,
        remote_spans stays zero."""
        _, _, store = served
        store.put("/g/a", b"x")
        store.get("/g/a")
        counters = store.metrics.registry.counters_snapshot()
        assert counters["net.rpc.remote_spans"] == 0
        assert store.server_metrics.snapshot() == {}

    def test_propagation_opt_out(self, served, clean_tracer):
        _, _, store = served
        store.trace_propagation = False
        clean_tracer.enable()
        store.put("/g/a", b"x")
        clean_tracer.disable()
        # ServerThread shares this process, so the server's own plain
        # spans land in the global tracer — but nothing was shipped
        # back and stitched onto the connection lane.
        assert not [s for s in clean_tracer.spans()
                    if s.tid == -store.lane]
        counters = store.metrics.registry.counters_snapshot()
        assert counters["net.rpc.remote_spans"] == 0
        assert store.server_metrics.snapshot() == {}

    def test_tracing_does_not_change_store_bytes(self, clean_tracer):
        """Digest equality between a traced and an untraced run: the
        trace context rides the envelope, never the store."""
        def run(traced):
            inner = CloudStore()
            server = ServerThread(inner)
            store = RemoteCloudStore(server.start())
            if traced:
                clean_tracer.reset()
                clean_tracer.enable()
            store.put("/g/a", b"one")
            store.put("/g/b", b"two")
            store.commit(CloudBatch().delete("/g/a"))
            store.put("/g/c", b"three", expected_version=0)
            if traced:
                clean_tracer.disable()
            digest = cloud_digest(inner)
            store.close()
            server.stop()
            return digest

        assert run(traced=True) == run(traced=False)


# ---------------------------------------------------------------------------
# Request log
# ---------------------------------------------------------------------------

class TestRequestLog:
    def test_records_requests_and_errors(self, tmp_path):
        log_path = tmp_path / "requests.jsonl"
        inner = CloudStore()
        server = ServerThread(inner,
                              request_log=RequestLog(str(log_path),
                                                     slow_ms=0.0))
        store = RemoteCloudStore(server.start())
        store.put("/g/a", b"x")
        with pytest.raises(NotFoundError):
            store.get("/missing")
        stats = store.server_stats()
        store.close()
        server.stop()

        rows = [json.loads(line)
                for line in log_path.read_text().splitlines()]
        methods = [r["method"] for r in rows]
        assert "store.commit" in methods and "store.get" in methods
        failed = next(r for r in rows if r["outcome"] == "not_found")
        assert failed["method"] == "store.get"
        assert failed["bytes_in"] > 0 and failed["bytes_out"] > 0
        assert failed["peer"].startswith("127.0.0.1:")
        # slow_ms=0 flags everything as slow.
        assert all(r["slow"] for r in rows)
        # The stats snapshot embeds the log status and tail.
        rlog = stats["request_log"]
        assert rlog["enabled"] and rlog["path"] == str(log_path)
        assert rlog["records"] >= len(rows) - 1
        assert rlog["errors"] >= 1
        assert rlog["tail"]

    def test_in_memory_log_and_tail_bound(self):
        log = RequestLog(tail_size=3)
        for i in range(5):
            log.record(request_id=i, method="store.get", latency_ms=1.0)
        assert log.records == 5
        assert [r["request_id"] for r in log.tail()] == [2, 3, 4]
        assert log.path is None

    def test_traced_requests_carry_trace_id(self, served, clean_tracer):
        inner = CloudStore()
        log = RequestLog()
        server = ServerThread(inner, request_log=log)
        store = RemoteCloudStore(server.start())
        clean_tracer.enable()
        store.put("/g/a", b"x")
        clean_tracer.disable()
        store.close()
        server.stop()
        puts = [r for r in log.tail() if r["method"] == "store.commit"]
        assert puts and puts[0]["trace_id"] == clean_tracer.trace_id


# ---------------------------------------------------------------------------
# CLI consumers
# ---------------------------------------------------------------------------

class TestCli:
    def test_stats_remote_and_health_exit_codes(self, served, capsys):
        from repro.cli import main

        _, server, store = served
        store.put("/g/a", b"x")

        assert main(["stats", "--store-url", server.url]) == 0
        out = capsys.readouterr().out
        assert "repro-store" in out and "store.commit" in out

        assert main(["stats", "--store-url", server.url,
                     "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["requests"]["total"] >= 1

        assert main(["stats", "--store-url", server.url,
                     "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "repro_net_server_requests" in prom

        assert main(["health", "--store-url", server.url]) == 0
        assert capsys.readouterr().out.startswith("ok")

        assert main(["health", "--store-url", server.url,
                     "--json"]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"

    def test_health_unreachable_exits_2(self, capsys):
        import socket

        from repro.cli import main

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        assert main(["health", "--store-url",
                     f"tcp://127.0.0.1:{port}", "--timeout", "1"]) == 2

    def test_stats_requires_a_source(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 1
        assert "store-url" in capsys.readouterr().err
