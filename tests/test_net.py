"""Network serving layer tests: wire schema, server, client SDK.

The headline assertions mirror the serving-layer contract:

* a seeded create/rekey/remove + client-sync workload produces the
  byte-identical cloud state and client group key whether the store is
  in-process or behind a real TCP ``StoreServer``;
* transient injected outages are absorbed by the existing retry layers
  with the remote store plugged in unchanged;
* killing the server mid-commit (an injected crash inside the store)
  surfaces as an *outcome unknown* failure at the client, and the
  journal roll-forward on restart resolves it to exactly-once.
"""

import socket
import threading
import time

import pytest

from repro.cloud import CloudBatch, CloudStore, FileCloudStore
from repro.crypto import DeterministicRng
from repro.errors import (
    AccessControlError,
    ConflictError,
    NotFoundError,
    ProtocolVersionError,
    ReproError,
    StorageError,
    UnavailableError,
    ValidationError,
    WireError,
    error_code,
)
from repro.faults import FaultInjector, FaultPlan, use_faults
from repro.net import (
    RemoteCloudStore,
    ServerThread,
    connect_store,
    parse_store_url,
)
from repro.net import wire
from repro.workloads.chaos import cloud_digest


# ---------------------------------------------------------------------------
# Wire schema
# ---------------------------------------------------------------------------

def test_frame_roundtrip():
    payload = {"id": 7, "method": "store.get", "params": {"path": "/a"}}
    frame = wire.encode_frame(payload)
    length = wire.decode_frame_length(frame[:4])
    assert length == len(frame) - 4
    assert wire.decode_frame_body(frame[4:]) == payload


def test_frame_rejects_oversize_and_garbage():
    with pytest.raises(WireError):
        wire.decode_frame_length(b"\xff\xff\xff\xff")
    with pytest.raises(WireError):
        wire.decode_frame_length(b"\x00\x00")
    with pytest.raises(WireError):
        wire.decode_frame_body(b"not json at all {")
    with pytest.raises(WireError):
        wire.decode_frame_body(b"[1, 2]")
    with pytest.raises(WireError):
        wire.b64d("@@not-base64@@")


def test_envelope_roundtrip():
    req = wire.Request(id=3, method="store.put", params={"path": "/x"})
    assert wire.Request.from_wire(req.to_wire()) == req
    ok = wire.Response(id=3, result={"version": 1})
    parsed = wire.Response.from_wire(ok.to_wire())
    assert parsed.ok and parsed.result == {"version": 1}
    bad = wire.Response(id=3, error=wire.WireFault("conflict", "boom"))
    parsed = wire.Response.from_wire(bad.to_wire())
    assert not parsed.ok and parsed.error.code == "conflict"


def test_envelope_rejects_malformed():
    with pytest.raises(WireError):
        wire.Request.from_wire({"params": {}})
    with pytest.raises(WireError):
        wire.Response.from_wire({"id": 1})
    with pytest.raises(WireError):
        wire.Response.from_wire({"id": 1, "ok": False, "error": "nope"})


def test_envelope_rejects_bad_ids():
    """A missing or non-integer envelope id raises instead of silently
    becoming 0 (which would mis-correlate request/response pairs)."""
    with pytest.raises(ValidationError):
        wire.Request.from_wire({"method": "store.get", "params": {}})
    with pytest.raises(ValidationError):
        wire.Request.from_wire(
            {"id": True, "method": "store.get", "params": {}})
    with pytest.raises(ValidationError):
        wire.Request.from_wire(
            {"id": "7", "method": "store.get", "params": {}})
    with pytest.raises(ValidationError):
        wire.Response.from_wire({"ok": True, "result": {}})
    with pytest.raises(ValidationError):
        wire.Response.from_wire({"id": 1.5, "ok": True, "result": {}})


def test_trace_context_only_on_wire_when_set():
    """The trace field is additive: absent from untraced envelopes, so
    pre-trace wire bytes are unchanged."""
    req = wire.Request(id=3, method="store.get", params={"path": "/x"})
    assert "trace" not in req.to_wire()
    traced = wire.Request(id=3, method="store.get", params={"path": "/x"},
                          trace={"id": "abcd", "parent": 7})
    obj = traced.to_wire()
    assert obj["trace"] == {"id": "abcd", "parent": 7}
    assert wire.Request.from_wire(obj) == traced
    with pytest.raises(WireError):
        wire.Request.from_wire(
            {"id": 1, "method": "store.get", "params": {}, "trace": "x"})

    resp = wire.Response(id=3, result={})
    assert "telemetry" not in resp.to_wire()
    shipped = wire.Response(id=3, result={},
                            telemetry={"spans": [], "counters": {}})
    obj = shipped.to_wire()
    assert obj["telemetry"] == {"spans": [], "counters": {}}
    with pytest.raises(WireError):
        wire.Response.from_wire(
            {"id": 1, "ok": True, "result": {}, "telemetry": []})


def test_error_code_mapping_roundtrip():
    for exc in (ConflictError("x"), NotFoundError("y"),
                UnavailableError("z"), ValidationError("v"),
                AccessControlError("a")):
        fault = wire.error_to_wire(exc)
        assert fault.code == error_code(exc)
        rebuilt = wire.wire_to_error(fault)
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)


def test_unknown_error_code_degrades_to_repro_error():
    rebuilt = wire.wire_to_error(wire.WireFault("from-the-future", "m"))
    assert type(rebuilt) is ReproError
    assert "from-the-future" in str(rebuilt)


def test_batch_codec_roundtrip():
    batch = (CloudBatch()
             .put("/a", b"\x00\xffbin", expected_version=2)
             .delete("/b", ignore_missing=True)
             .put("/c", b""))
    decoded = wire.decode_batch(wire.encode_batch(batch))
    assert decoded.ops == batch.ops


def test_parse_store_url():
    assert parse_store_url("tcp://127.0.0.1:80") == ("127.0.0.1", 80)
    assert parse_store_url("localhost:9999") == ("localhost", 9999)
    for bad in ("", "tcp://", "hostonly", "h:notaport"):
        with pytest.raises(ValidationError):
            parse_store_url(bad)


# ---------------------------------------------------------------------------
# Server + client plumbing
# ---------------------------------------------------------------------------

@pytest.fixture
def served():
    inner = CloudStore()
    server = ServerThread(inner)
    url = server.start()
    store = RemoteCloudStore(url)
    yield inner, server, store
    store.close()
    server.stop()


def _raw_exchange(url, payloads):
    """Speak raw frames to a server; returns the decoded responses."""
    host, port = parse_store_url(url)
    out = []
    with socket.create_connection((host, port), timeout=5) as sock:
        for payload in payloads:
            sock.sendall(wire.encode_frame(payload))
            header = sock.recv(4)
            if len(header) < 4:
                break
            length = wire.decode_frame_length(header)
            body = b""
            while len(body) < length:
                chunk = sock.recv(length - len(body))
                if not chunk:
                    break
                body += chunk
            out.append(wire.decode_frame_body(body))
    return out


def test_handshake_version_mismatch_rejected(served):
    _, server, _ = served
    replies = _raw_exchange(server.url, [
        {"id": 1, "method": "hello",
         "params": {"protocol": 999, "client": "test"}},
    ])
    assert replies and not replies[0]["ok"]
    assert replies[0]["error"]["code"] == "protocol_version"


def test_first_request_must_be_hello(served):
    _, server, _ = served
    replies = _raw_exchange(server.url, [
        {"id": 1, "method": "store.get", "params": {"path": "/x"}},
    ])
    assert replies and not replies[0]["ok"]
    assert replies[0]["error"]["code"] == "wire"


def test_unknown_method_is_wire_error(served):
    """``admin.call`` was a method once (an unauthenticated door onto
    the hosted enclave); it is unknown like any other now."""
    _, server, _ = served
    hello = {"id": 1, "method": "hello",
             "params": {"protocol": wire.PROTOCOL_VERSION}}
    replies = _raw_exchange(server.url, [
        hello,
        {"id": 2, "method": "store.nonsense", "params": {}},
        {"id": 3, "method": "admin.call",
         "params": {"op": "rekey", "kwargs": {"group_id": "g"}}},
    ])
    assert [reply["error"]["code"] for reply in replies[1:]] == \
        ["wire", "wire"]


def test_server_errors_carry_stable_codes(served):
    _, _, store = served
    with pytest.raises(NotFoundError):
        store.get("/missing")
    store.put("/a", b"x")
    with pytest.raises(ConflictError):
        store.put("/a", b"y", expected_version=9)
    with pytest.raises(StorageError):
        store.put("/../escape", b"z")


def test_client_reports_dead_server_as_unavailable():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()    # nothing listens here any more
    with pytest.raises(UnavailableError):
        connect_store(f"tcp://127.0.0.1:{port}", timeout=2)


def test_client_reconnects_after_server_restart(tmp_path, served):
    inner, server, store = served
    store.put("/a", b"one")
    server.stop()
    with pytest.raises((UnavailableError, StorageError)):
        store.get("/a")
    # Same store, fresh server on a new port; re-point and carry on.
    server2 = ServerThread(inner)
    url2 = server2.start()
    store2 = RemoteCloudStore(url2)
    assert store2.get("/a").data == b"one"
    store2.close()
    server2.stop()


def wait_for_poll_waiters(server, count=1, timeout=5.0):
    """Block until at least ``count`` long-polls are parked on the
    server (or ``timeout`` elapses).  The deterministic handshake used
    instead of sleeping and hoping the poll RPC has arrived — fixed
    sleeps flake under loaded CI runners."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.poll_waiters >= count:
            return True
        time.sleep(0.002)
    return server.poll_waiters >= count


def test_long_poll_wakes_on_mutation(served):
    inner, server, store = served
    watcher = RemoteCloudStore(server.url, poll_wait_ms=10_000)
    cursor = watcher.head_sequence()
    result = {}

    def poll():
        events, cur = watcher.poll_dir("/g", cursor)
        result["events"] = events

    thread = threading.Thread(target=poll)
    thread.start()
    # Condition-wait handshake instead of a fixed sleep: only mutate
    # once the server has actually parked the long-poll (a sleep races
    # the poll RPC's arrival under loaded CI runners).
    assert wait_for_poll_waiters(server, 1, timeout=5.0)
    store.put("/g/new", b"x")
    thread.join(timeout=5)
    assert not thread.is_alive()
    # The waiter count proves it blocked; no wall-clock assertion needed.
    assert [e.path for e in result["events"]] == ["/g/new"]
    assert server.poll_waiters == 0
    watcher.close()


def test_long_poll_times_out_empty(served):
    _, server, _ = served
    watcher = RemoteCloudStore(server.url, poll_wait_ms=150)
    start = time.perf_counter()
    events, cursor = watcher.poll_dir("/quiet", 0)
    assert events == [] and cursor == 0
    assert time.perf_counter() - start >= 0.10
    watcher.close()


def test_rpc_metrics_accounted(served):
    _, _, store = served
    store.put("/a", b"payload")
    store.get("/a")
    counters = store.metrics.registry.counters_snapshot()
    assert counters["net.rpc.requests"] >= 2    # put + get
    assert counters["net.rpc.bytes_sent"] > 0
    assert counters["net.rpc.bytes_received"] > 0
    # The CloudMetrics mirror reports payload volume like a local store.
    assert store.metrics.bytes_in == len(b"payload")
    assert store.metrics.bytes_out == len(b"payload")


# ---------------------------------------------------------------------------
# End-to-end equivalence: remote == in-process, byte for byte
# ---------------------------------------------------------------------------

GROUP = "team"


def _run_workload(seed, store):
    """Seeded create/add/rekey/remove + client-sync workload on a fresh
    deployment built against ``store``.  Returns the surviving member's
    group key."""
    from repro import quickstart_system

    system = quickstart_system(partition_capacity=2, params="toy64",
                               rng=DeterministicRng(seed), cloud=store,
                               auto_repartition=False)
    admin = system.admin
    admin.create_group(GROUP, ["alice", "bob", "carol"])
    admin.add_user(GROUP, "dave")
    admin.rekey(GROUP)
    admin.remove_user(GROUP, "bob")
    client = system.make_client(GROUP, "alice")
    client.sync()
    key = client.current_group_key()
    system.close()
    return key


def test_remote_workload_is_byte_identical_to_in_process():
    seed = "net-equivalence"
    local_inner = CloudStore()
    local_key = _run_workload(seed, local_inner)

    remote_inner = CloudStore()
    server = ServerThread(remote_inner)
    store = RemoteCloudStore(server.start())
    remote_key = _run_workload(seed, store)
    store.close()
    server.stop()

    assert remote_key == local_key
    assert cloud_digest(remote_inner) == cloud_digest(local_inner)
    # Identical RNG streams: even versions and sealed blobs agree, so
    # the raw object maps match exactly, not just the digest.
    local_view = {o.path: (o.data, o.version)
                  for o in local_inner.adversary_view()}
    remote_view = {o.path: (o.data, o.version)
                   for o in remote_inner.adversary_view()}
    assert remote_view == local_view


def test_workload_under_injected_outages_converges():
    """The PR-5 fault/retry layers compose with the network store: a
    FaultyCloudStore over a RemoteCloudStore injects client-side
    outages and timeouts, the admin's and client's RetryPolicy absorb
    them, and the result matches the fault-free in-process run."""
    from repro.faults import FaultyCloudStore

    seed = "net-faults"
    local_inner = CloudStore()
    local_key = _run_workload(seed, local_inner)

    remote_inner = CloudStore()
    server = ServerThread(remote_inner)
    store = RemoteCloudStore(server.start())
    # The pipeline batches each admin op into one commit, so the
    # workload only consults the injector a handful of times; crank the
    # rates so outages deterministically fire within those draws.
    injector = FaultInjector(FaultPlan(seed="outage-seed",
                                       store_error_rate=0.45,
                                       store_timeout_rate=0.30,
                                       latency_spike_rate=0.30))
    faulty = FaultyCloudStore(store, injector)
    remote_key = _run_workload(seed, faulty)
    assert injector.log, "the plan should have injected something"
    store.close()
    server.stop()

    assert remote_key == local_key
    assert cloud_digest(remote_inner) == cloud_digest(local_inner)


# ---------------------------------------------------------------------------
# Mid-commit server kill: ambiguous outcome, exactly-once recovery
# ---------------------------------------------------------------------------

def join_crashed(server, timeout=10.0):
    """Wait for a crash-triggered shutdown and return the crash: the
    server aborts itself; this joins its thread and surfaces the
    :class:`~repro.errors.CrashError` that killed it."""
    server._thread.join(timeout=timeout)
    assert not server._thread.is_alive()
    server._thread = None
    assert server.crashed is not None, "server did not crash"
    return server.crashed


def test_server_killed_mid_commit_recovers_exactly_once(tmp_path):
    root = tmp_path / "store"
    inner = FileCloudStore(root)
    inner.put("/g/existing", b"before")
    server = ServerThread(inner)
    store = RemoteCloudStore(server.start())
    assert store.get("/g/existing").data == b"before"

    # Crash deterministically at the first crash point the commit hits
    # (cloud.commit.journaled — after the journal is durable, before
    # the data files are written).
    injector = FaultInjector(FaultPlan(seed="kill", crash_rate=1.0,
                                       max_crashes=1))
    batch = CloudBatch().put("/g/a", b"one").put("/g/b", b"two")
    with use_faults(injector):
        with pytest.raises(StorageError) as excinfo:
            store.commit(batch)
    # Not the retry-safe kind: the outcome is genuinely unknown.
    assert not isinstance(excinfo.value, UnavailableError)
    assert "outcome unknown" in str(excinfo.value)
    assert injector.history() == [("crash", "cloud.commit.journaled")]
    crash = join_crashed(server)
    assert crash.point == "cloud.commit.journaled"

    # The dead server's connections are gone.
    with pytest.raises((UnavailableError, StorageError)):
        store.get("/g/existing")
    store.close()

    # "Restart the process": reopen the directory (journal roll-forward
    # applies the committed batch exactly once) and serve it again.
    reopened = FileCloudStore(root)
    server2 = ServerThread(reopened)
    store2 = RemoteCloudStore(server2.start())
    assert store2.get("/g/a").data == b"one"
    assert store2.get("/g/b").data == b"two"
    assert store2.get("/g/existing").data == b"before"
    # Versions prove single application.
    assert store2.get("/g/a").version == 1
    assert store2.get("/g/b").version == 1
    store2.close()
    server2.stop()


def test_chaos_harness_converges_over_network():
    """The chaos harness's network mode: the chaos run's store lives
    behind a real StoreServer (crashes kill the serving process), and
    the final state must still be byte-identical to the in-process
    fault-free reference."""
    from repro.workloads.chaos import run_chaos

    report = run_chaos(FaultPlan.store_faults("net-chaos"), ops=6,
                       pool=6, initial=3, capacity=4, seed="net-chaos",
                       remote=True)
    assert report.converged, report.summary()
