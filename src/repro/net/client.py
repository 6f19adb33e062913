"""``RemoteCloudStore`` — the client side of the store protocol.

Implements the full :class:`~repro.cloud.CloudStoreProtocol`, so every
consumer of a store — :class:`~repro.core.GroupAdministrator`,
:class:`~repro.core.GroupClient`, the multi-admin machinery, the chaos
harness, the benchmarks — runs unmodified against a remote
:class:`~repro.net.StoreServer`.  The transport is a single blocking
socket guarded by a lock (store consumers are synchronous; one
in-flight request at a time mirrors the sequential round-trip model the
rest of the stack accounts for).

**Failure taxonomy** (what :class:`~repro.faults.RetryPolicy` relies
on):

* connect/handshake failures and send failures on *read* operations
  raise :class:`~repro.errors.UnavailableError` — the request did not
  execute, retrying is safe;
* a connection lost *after a mutating request may have reached the
  server* raises plain :class:`~repro.errors.StorageError` ("outcome
  unknown") — blind retry is **not** safe, the caller must re-inspect
  state exactly as it would after a process crash;
* server-reported errors are reconstructed from their stable wire code
  (:func:`repro.errors.error_for_code`) — a remote
  :class:`~repro.errors.ConflictError` is a local ``ConflictError``.

**Observability.**  The client keeps a local
:class:`~repro.cloud.store.CloudMetrics` mirror (``cloud.requests``,
``cloud.bytes_in/out`` measured on payloads, exactly like an in-process
store) so bandwidth-reporting code works unchanged, plus ``net.rpc.*``
counters and a latency histogram in the same registry; every RPC runs
inside a ``net.rpc.<method>`` span.

**Distributed tracing.**  When the global tracer is enabled and the
server advertised the ``"trace"`` hello feature, every RPC carries a
``trace`` context (the tracer's trace id + the open ``net.rpc.*``
span's id) and the response's piggybacked ``telemetry`` — the server's
handler span tree and store counter deltas — is stitched into the
local trace via :func:`repro.obs.merge_traces`.  Each connection gets
its own negative ``tid`` lane (``conn-1``, ``conn-2``, … in the Chrome
trace), and shipped counter deltas accumulate in
:attr:`RemoteCloudStore.server_metrics` — deliberately separate from
the client-side mirror so server-observed and client-observed costs
never double count.  With tracing disabled nothing is added to the
envelope: the wire bytes are identical to a pre-trace client.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cloud.protocol import CloudBatch, CloudStoreProtocol
from repro.cloud.store import CloudMetrics, CloudObject, DirectoryEvent
from repro.errors import (
    ProtocolVersionError,
    StorageError,
    UnavailableError,
    ValidationError,
    WireError,
)
from repro.net import wire
from repro.net.wire import MUTATING_WIRE_METHODS
from repro.obs import MetricRegistry, merge_traces, span, tracer
from repro.obs.collect import carry_dropped

#: Per-process connection-lane allocator: lane n renders as Chrome
#: trace thread ``conn-n`` (tid -n; negative so lanes can never collide
#: with worker pids).
_CONNECTION_LANES = itertools.count(1)


def parse_store_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` (or bare ``host:port``) -> ``(host, port)``."""
    stripped = url.strip()
    if stripped.startswith("tcp://"):
        stripped = stripped[len("tcp://"):]
    host, sep, port = stripped.rpartition(":")
    if not sep or not host:
        raise ValidationError(f"store URL {url!r} is not host:port")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValidationError(f"store URL {url!r} has a bad port") from exc


class RemoteCloudStore(CloudStoreProtocol):
    """A :class:`~repro.cloud.CloudStoreProtocol` over TCP."""

    def __init__(self, url: str, timeout: float = 30.0,
                 poll_wait_ms: float = 0.0,
                 trace_propagation: bool = True) -> None:
        self._host, self._port = parse_store_url(url)
        self.url = f"tcp://{self._host}:{self._port}"
        self._timeout = timeout
        #: Server-side long-poll budget attached to every ``poll_dir``;
        #: 0 keeps the immediate-return contract semantics.
        self.poll_wait_ms = poll_wait_ms
        #: Attach trace contexts when the global tracer is enabled and
        #: the server advertised ``"trace"`` (off: never touch the
        #: envelope, whatever the tracer state).
        self.trace_propagation = trace_propagation
        #: This connection's Chrome-trace lane (rendered ``conn-n``).
        self.lane = next(_CONNECTION_LANES)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._next_id = 0
        self.server_features: Tuple[str, ...] = ()
        self.metrics = CloudMetrics()
        #: Counter deltas the server shipped back on traced responses —
        #: the *server's* view of the work this connection caused, kept
        #: apart from the client-side ``metrics`` mirror so the two
        #: never double count.
        self.server_metrics = MetricRegistry()
        reg = self.metrics.registry
        self._rpc_requests = reg.counter("net.rpc.requests")
        self._rpc_errors = reg.counter("net.rpc.errors")
        self._rpc_reconnects = reg.counter("net.rpc.reconnects")
        self._rpc_bytes_sent = reg.counter("net.rpc.bytes_sent")
        self._rpc_bytes_received = reg.counter("net.rpc.bytes_received")
        self._rpc_remote_spans = reg.counter("net.rpc.remote_spans")
        self._rpc_latency = reg.histogram("net.rpc.latency_ms")

    # -- transport ---------------------------------------------------------

    def _connect(self) -> None:
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout)
        except OSError as exc:
            raise UnavailableError(
                f"cannot reach store at {self.url}: {exc}") from exc
        self._sock = sock
        self._rpc_reconnects.add()
        hello = wire.HelloRequest(protocol=wire.PROTOCOL_VERSION,
                                  client="repro")
        try:
            reply = self._roundtrip_raw(hello.METHOD, hello.to_params())
        except (UnavailableError, WireError):
            self._drop()
            raise
        if not reply.ok:
            self._drop()
            assert reply.error is not None
            raise wire.wire_to_error(reply.error)
        greeting = wire.HelloResponse.from_params(reply.result or {})
        if greeting.protocol != wire.PROTOCOL_VERSION:
            self._drop()
            raise ProtocolVersionError(
                f"server speaks protocol {greeting.protocol}, "
                f"client requires {wire.PROTOCOL_VERSION}")
        self.server_features = tuple(greeting.features)

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _recv_exactly(self, count: int) -> bytes:
        assert self._sock is not None
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ConnectionError("connection closed by server")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def _roundtrip_raw(self, method: str, params: Dict[str, object],
                       trace: Optional[Dict[str, Any]] = None
                       ) -> wire.Response:
        """One frame out, one frame in, on the live socket.  Raises
        ``ConnectionError``/``OSError`` upward for `_call` to classify."""
        assert self._sock is not None
        self._next_id += 1
        request_id = self._next_id
        frame = wire.encode_frame(
            wire.Request(id=request_id, method=method,
                         params=params, trace=trace).to_wire())
        try:
            self._sock.sendall(frame)
            self._rpc_bytes_sent.add(len(frame))
            header = self._recv_exactly(4)
            body = self._recv_exactly(wire.decode_frame_length(header))
        except socket.timeout as exc:
            raise ConnectionError(f"rpc timed out: {exc}") from exc
        self._rpc_bytes_received.add(len(header) + len(body))
        response = wire.Response.from_wire(wire.decode_frame_body(body))
        if response.id != request_id:
            raise WireError(
                f"response id {response.id} does not match "
                f"request id {request_id}")
        return response

    def _call(self, message: wire._Message) -> Dict[str, object]:
        """Send one typed request; return the (ok) result params.

        Classifies transport failures per the module docstring and
        reconstructs server errors from their wire code."""
        method = message.METHOD
        mutating = method in MUTATING_WIRE_METHODS
        with self._lock:
            with span(f"net.rpc.{method}", "net", url=self.url) as rpc:
                started = time.perf_counter()
                sent = False
                try:
                    if self._sock is None:
                        self._connect()
                    trace_ctx = self._trace_context(rpc)
                    sent = True    # sendall may hand bytes to the kernel
                    response = self._roundtrip_raw(method,
                                                   message.to_params(),
                                                   trace=trace_ctx)
                except (ConnectionError, OSError) as exc:
                    self._drop()
                    self._rpc_errors.add()
                    if mutating and sent:
                        raise StorageError(
                            f"connection lost awaiting {method} response: "
                            f"outcome unknown ({exc})") from exc
                    raise UnavailableError(
                        f"store at {self.url} unavailable during "
                        f"{method}: {exc}") from exc
                self._rpc_requests.add()
                self._rpc_latency.observe(
                    (time.perf_counter() - started) * 1000.0)
                if response.telemetry is not None:
                    self._merge_telemetry(response.telemetry)
                if not response.ok:
                    self._rpc_errors.add()
                    assert response.error is not None
                    raise wire.wire_to_error(response.error)
                return response.result or {}

    def _trace_context(self, rpc_span) -> Optional[Dict[str, Any]]:
        """The ``trace`` context for the current RPC, or ``None``.

        Attached only when propagation is on, the global tracer is
        enabled *and* the connected server advertised ``"trace"`` — so
        against an older server (or with telemetry off) the request
        envelope stays byte-for-byte what it was before tracing
        existed.
        """
        t = tracer()
        if not (self.trace_propagation and t.enabled
                and wire.FEATURE_TRACE in self.server_features):
            return None
        ctx: Dict[str, Any] = {"id": t.trace_id}
        span_id = getattr(rpc_span, "span_id", None)
        if span_id is not None:
            ctx["parent"] = span_id
            rpc_span.set(trace_id=t.trace_id)
        return ctx

    def _merge_telemetry(self, telemetry: Dict[str, Any]) -> None:
        """Stitch a piggybacked server capture into the local trace.

        Span rows land on this connection's negative-``tid`` lane and
        attach under the currently open ``net.rpc.*`` span (that is
        exactly what :func:`repro.obs.merge_traces` does with the
        innermost active span); counter deltas accumulate in
        :attr:`server_metrics`.
        """
        rows = telemetry.get("spans") or []
        if rows:
            kept = merge_traces(tracer(), rows, tid=-self.lane)
            self._rpc_remote_spans.add(kept)
        deltas = telemetry.get("counters") or {}
        if deltas:
            self.server_metrics.add_counter_deltas(deltas)
        carry_dropped(telemetry, tracer())

    # -- contract methods --------------------------------------------------

    #: The inherited one-op commit (one ``store.commit`` RPC), bound in
    #: this class's own namespace: ``benchmarks/ledger`` times
    #: ``RemoteCloudStore.put`` by wrapping the class attribute.
    put = CloudStoreProtocol.put

    def get(self, path: str) -> CloudObject:
        result = self._call(wire.GetRequest(path=path))
        obj = wire.decode_object(
            wire.GetResponse.from_params(result).object)
        self.metrics.requests += 1
        self.metrics.bytes_out += len(obj.data)
        return obj

    def get_many(self, paths: Iterable[str]) -> Dict[str, CloudObject]:
        result = self._call(wire.GetManyRequest(paths=list(paths)))
        objects = [wire.decode_object(o) for o in
                   wire.GetManyResponse.from_params(result).objects]
        self.metrics.requests += 1
        self.metrics.bytes_out += sum(len(o.data) for o in objects)
        return {o.path: o for o in objects}

    def commit(self, batch: CloudBatch) -> Dict[str, int]:
        result = self._call(wire.CommitRequest(
            ops=wire.encode_batch(batch)))
        self.metrics.requests += 1
        self.metrics.batch_commits += 1
        self.metrics.bytes_in += batch.payload_bytes
        versions = wire.CommitResponse.from_params(result).versions
        return {path: int(version) for path, version in versions.items()}

    def list_dir(self, directory: str) -> List[str]:
        result = self._call(wire.ListDirRequest(directory=directory))
        self.metrics.requests += 1
        return list(wire.ListDirResponse.from_params(result).children)

    def poll_dir(self, directory: str, after_sequence: int = 0,
                 ) -> Tuple[List[DirectoryEvent], int]:
        result = self._call(wire.PollDirRequest(
            directory=directory, after_sequence=after_sequence,
            wait_ms=self.poll_wait_ms))
        reply = wire.PollDirResponse.from_params(result)
        self.metrics.requests += 1
        return ([wire.decode_event(e) for e in reply.events],
                int(reply.cursor))

    def compact(self) -> int:
        result = self._call(wire.CompactRequest())
        self.metrics.requests += 1
        return wire.CompactResponse.from_params(result).truncated

    def snapshot_horizon(self) -> int:
        result = self._call(wire.HorizonRequest())
        return wire.HorizonResponse.from_params(result).horizon

    def head_sequence(self) -> int:
        result = self._call(wire.HeadSequenceRequest())
        return wire.HeadSequenceResponse.from_params(result).sequence

    def adversary_view(self) -> Iterator[CloudObject]:
        result = self._call(wire.AdversaryViewRequest())
        objects = wire.AdversaryViewResponse.from_params(result).objects
        return iter([wire.decode_object(o) for o in objects])

    # -- ops surface (not part of the CloudStoreProtocol contract) ---------

    def server_stats(self) -> Dict[str, Any]:
        """The server's ``ops.stats`` operational snapshot.

        Raises :class:`~repro.errors.WireError` against a pre-``ops``
        server (the method is unknown there)."""
        result = self._call(wire.StatsRequest())
        return wire.StatsResponse.from_params(result).stats

    def server_health(self) -> Dict[str, Any]:
        """The server's ``ops.health`` probe result:
        ``{"status": "ok"|"degraded"|"failing", "uptime_s": ...,
        "checks": {...}}``."""
        result = self._call(wire.HealthRequest())
        reply = wire.HealthResponse.from_params(result)
        return {"status": reply.status, "uptime_s": reply.uptime_s,
                "checks": reply.checks}

    def __repr__(self) -> str:
        return f"RemoteCloudStore({self.url!r})"


def connect_store(url: str, timeout: float = 30.0,
                  poll_wait_ms: float = 0.0) -> RemoteCloudStore:
    """Connect to a :class:`~repro.net.StoreServer` and verify the
    handshake eagerly (so bad URLs fail at connect time, not first use)."""
    store = RemoteCloudStore(url, timeout=timeout,
                             poll_wait_ms=poll_wait_ms)
    # Cheap RPC to force connect + hello.
    store.head_sequence()
    return store
