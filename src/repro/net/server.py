"""Asyncio store server for the :mod:`repro.net` protocol.

:class:`StoreServer` hosts any :class:`~repro.cloud.CloudStoreProtocol`
implementation — the in-memory :class:`~repro.cloud.CloudStore`, the
durable :class:`~repro.cloud.FileCloudStore`, or a fault-decorated
store — behind the length-prefixed JSON frame protocol of
:mod:`repro.net.wire`.  Store calls are synchronous and execute on the
event loop, which serializes them exactly like the single in-process
store they wrap; concurrency lives in the connection handling and in
``poll_dir`` long-polling, where a connection parks on an
:class:`asyncio.Condition` that every committed mutation notifies.

**Crash semantics.**  :class:`~repro.errors.CrashError` raised by a
store (an injected crash point from :mod:`repro.faults`) is *not*
converted into an error response: it models the death of the store
process, so the server records it, aborts every connection mid-flight
and shuts down.  Clients observe a dropped connection with the request
outcome unknown — precisely the failure a chaos driver must resolve by
state inspection after restart.

**Operational telemetry.**  The server keeps its own
:class:`~repro.obs.MetricRegistry` (request/error counters, per-method
error counters, connection and long-poll gauges, byte totals) plus a
rolling :class:`~repro.obs.SloWindow` per wire method, and serves both
— together with the hosted store's metrics, journal-recovery state and
the optional :class:`~repro.net.reqlog.RequestLog` tail — through the
read-only ``ops.stats`` / ``ops.health`` wire methods.  A request that
carries a ``trace`` context additionally runs under a per-request span
capture whose rows and counter deltas ship back piggybacked on the
response (see :meth:`StoreServer._dispatch_traced`).

:class:`ServerThread` runs the whole thing on a background thread for
tests, benchmarks and the chaos harness: ``start()`` returns the bound
URL, ``stop()`` shuts down gracefully, and ``crashed`` reports a
:class:`~repro.errors.CrashError` that killed the server.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.protocol import CloudStoreProtocol
from repro.errors import (
    CrashError,
    ProtocolVersionError,
    ReproError,
    ValidationError,
    WireError,
    error_code,
)
from repro.net import wire
from repro.net.reqlog import RequestLog
from repro.obs import MetricRegistry, SloWindow, Tracer, span, use_tracer
from repro.obs.collect import capture_payload


def _json_safe(value: Any) -> Any:
    """Clamp shipped span rows to JSON-safe data (drop the rest)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return None


class StoreServer:
    """Serve a :class:`~repro.cloud.CloudStoreProtocol` over TCP."""

    def __init__(self, store: CloudStoreProtocol,
                 host: str = "127.0.0.1", port: int = 0,
                 name: str = "repro-store",
                 request_log: Optional[RequestLog] = None) -> None:
        self.store = store
        self.name = name
        self.request_log = request_log
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._mutated: Optional[asyncio.Condition] = None
        #: Connections currently parked in a ``poll_dir`` long-poll.
        #: Tests synchronise on this instead of sleeping a fixed time
        #: and hoping the poll RPC arrived (see ``poll_waiters``).
        self._poll_waiters = 0
        self._writers: List[asyncio.StreamWriter] = []
        #: Set when a CrashError from the store killed the server.
        self.crashed: Optional[CrashError] = None
        self.closed = asyncio.Event()
        self._started = time.monotonic()
        #: Server-side operational metrics, merged into ``ops.stats``
        #: responses next to the hosted store's own registry.
        self.registry = MetricRegistry()
        self._requests_total = self.registry.counter("net.server.requests")
        self._errors_total = self.registry.counter("net.server.errors")
        self._bytes_in = self.registry.counter("net.server.bytes_in")
        self._bytes_out = self.registry.counter("net.server.bytes_out")
        self._connections_total = self.registry.counter(
            "net.server.connections.total")
        self.registry.gauge("net.server.connections.active",
                            lambda: len(self._writers))
        self.registry.gauge("net.server.poll_waiters",
                            lambda: self._poll_waiters)
        #: Rolling per-method SLO windows plus one for all traffic.
        self._slo: Dict[str, SloWindow] = {}
        self._slo_all = SloWindow("all")
        self._handlers: Dict[str, Callable[[Dict[str, Any]], Any]] = {
            "store.get": self._h_get,
            "store.get_many": self._h_get_many,
            "store.commit": self._h_commit,
            "store.list_dir": self._h_list_dir,
            "store.poll_dir": self._h_poll_dir,
            "store.compact": self._h_compact,
            "store.snapshot_horizon": self._h_horizon,
            "store.head_sequence": self._h_head_sequence,
            "store.adversary_view": self._h_adversary_view,
            "ops.stats": self._h_stats,
            "ops.health": self._h_health,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``
        (a requested port of 0 binds an ephemeral one)."""
        self._mutated = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)
        sock = self._server.sockets[0]
        self._host, self._port = sock.getsockname()[:2]
        return self._host, self._port

    @property
    def poll_waiters(self) -> int:
        """Connections currently parked in a ``poll_dir`` long-poll.

        The condition-wait alternative to wall-clock sleeps: a test (or
        monitor) that must act *while a long-poll is parked* spins on
        this going positive instead of sleeping a fixed interval and
        assuming the poll RPC has reached the server by then."""
        return self._poll_waiters

    @property
    def url(self) -> str:
        return f"tcp://{self._host}:{self._port}"

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drop live connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self.closed.set()

    def _abort(self, crash: CrashError) -> None:
        """Simulated process death: everything stops, nothing is flushed."""
        self.crashed = crash
        if self._server is not None:
            self._server.close()
            self._server = None
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()
        self.closed.set()

    # -- connection handling ----------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader
                          ) -> Optional[Tuple[Dict[str, Any], int]]:
        """One decoded frame plus its total on-the-wire byte count."""
        try:
            header = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        length = wire.decode_frame_length(header)
        body = await reader.readexactly(length)
        return wire.decode_frame_body(body), 4 + length

    async def _send(self, writer: asyncio.StreamWriter,
                    response: wire.Response) -> int:
        frame = wire.encode_frame(response.to_wire())
        writer.write(frame)
        await writer.drain()
        return len(frame)

    @staticmethod
    def _peer(writer: asyncio.StreamWriter) -> str:
        peername = writer.get_extra_info("peername")
        if isinstance(peername, (tuple, list)) and len(peername) >= 2:
            return f"{peername[0]}:{peername[1]}"
        return "?"

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._writers.append(writer)
        self._connections_total.add()
        peer = self._peer(writer)
        greeted = False
        try:
            while True:
                try:
                    frame = await self._read_frame(reader)
                except WireError:
                    break    # unframeable garbage: drop the connection
                if frame is None:
                    break
                payload, bytes_in = frame
                started = time.perf_counter()
                try:
                    request = wire.Request.from_wire(payload)
                except (ValidationError, WireError) as exc:
                    bytes_out = await self._send(writer, wire.Response(
                        id=0, error=wire.error_to_wire(exc)))
                    self._observe("<malformed>", 0, None, started,
                                  error_code(exc), bytes_in, bytes_out,
                                  peer)
                    continue
                if not greeted:
                    ok = await self._handle_hello(request, writer)
                    if not ok:
                        break
                    greeted = True
                    continue
                trace_id = (str(request.trace.get("id", ""))
                            if request.trace else None)
                try:
                    result, telemetry = await self._dispatch(request)
                except CrashError as crash:
                    # The store process "died" mid-request: no response,
                    # no cleanup, every connection torn down.
                    self._abort(crash)
                    return
                except ReproError as exc:
                    bytes_out = await self._send(writer, wire.Response(
                        id=request.id, error=wire.error_to_wire(exc),
                        telemetry=getattr(exc, "wire_telemetry", None)))
                    self._observe(request.method, request.id, trace_id,
                                  started, error_code(exc), bytes_in,
                                  bytes_out, peer)
                    continue
                bytes_out = await self._send(writer, wire.Response(
                    id=request.id, result=result, telemetry=telemetry))
                self._observe(request.method, request.id, trace_id,
                              started, "ok", bytes_in, bytes_out, peer)
        except ConnectionError:
            pass
        finally:
            if writer in self._writers:
                self._writers.remove(writer)
                writer.close()

    def _observe(self, method: str, request_id: int,
                 trace_id: Optional[str], started: float, outcome: str,
                 bytes_in: int, bytes_out: int, peer: str) -> None:
        """Account one handled request (counters, SLO window, log).

        Deliberately excluded: the ``hello`` handshake (not a store
        request) and requests that died with the server (a crash aborts
        the connection before any response exists to account)."""
        latency_ms = (time.perf_counter() - started) * 1000.0
        ok = outcome == "ok"
        self._requests_total.add()
        self._bytes_in.add(bytes_in)
        self._bytes_out.add(bytes_out)
        self.registry.counter(
            f"net.server.method.{method}.requests").add()
        if not ok:
            self._errors_total.add()
            self.registry.counter(
                f"net.server.method.{method}.errors").add()
        self._slo_all.observe(latency_ms, ok)
        window = self._slo.get(method)
        if window is None:
            window = self._slo[method] = SloWindow(method)
        window.observe(latency_ms, ok)
        if self.request_log is not None:
            self.request_log.record(
                request_id=request_id, method=method, trace_id=trace_id,
                bytes_in=bytes_in, bytes_out=bytes_out,
                latency_ms=latency_ms, outcome=outcome, peer=peer)

    async def _handle_hello(self, request: wire.Request,
                            writer: asyncio.StreamWriter) -> bool:
        if request.method != wire.HelloRequest.METHOD:
            await self._send(writer, wire.Response(
                id=request.id, error=wire.error_to_wire(WireError(
                    "expected hello as the first request"))))
            return False
        hello = wire.HelloRequest.from_params(request.params)
        if hello.protocol != wire.PROTOCOL_VERSION:
            await self._send(writer, wire.Response(
                id=request.id, error=wire.error_to_wire(
                    ProtocolVersionError(
                        f"server speaks protocol {wire.PROTOCOL_VERSION}, "
                        f"client sent {hello.protocol}"))))
            return False
        await self._send(writer, wire.Response(
            id=request.id,
            result=wire.HelloResponse(
                protocol=wire.PROTOCOL_VERSION, server=self.name,
                features=self.features()).to_params()))
        return True

    def features(self) -> List[str]:
        """Capabilities advertised in the hello response."""
        return [wire.FEATURE_STORE, wire.FEATURE_TRACE, wire.FEATURE_OPS]

    async def _dispatch(self, request: wire.Request
                        ) -> Tuple[Dict[str, Any],
                                   Optional[Dict[str, Any]]]:
        """Run the handler; returns ``(result, telemetry-or-None)``."""
        handler = self._handlers.get(request.method)
        if handler is None:
            raise WireError(f"unknown method {request.method!r}")
        telemetry: Optional[Dict[str, Any]] = None
        if request.trace is not None:
            result, telemetry = await self._dispatch_traced(
                request, handler)
        else:
            with span(f"net.server.{request.method}", "net"):
                result = handler(request.params)
                if asyncio.iscoroutine(result):
                    result = await result
        if request.method in wire.MUTATING_WIRE_METHODS:
            # Wake the parked ``poll_dir`` long-polls.
            await self._notify_mutation()
        return result, telemetry

    def _store_registry(self):
        """The hosted store's metric registry, when it exposes one."""
        metrics = getattr(self.store, "metrics", None)
        return getattr(metrics, "registry", None)

    async def _dispatch_traced(self, request: wire.Request,
                               handler: Callable[[Dict[str, Any]], Any]
                               ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Run the handler under a per-request span capture.

        A fresh enabled :class:`Tracer` records the handler span (tagged
        with the propagated trace id and the client's parent span id)
        plus — for synchronous store handlers, which the event loop
        cannot interleave — every nested ``cloud.*`` span, by swapping
        the capture in as the global tracer for exactly the duration of
        the call.  The asynchronous handler (``poll_dir``)
        only records the handler span itself: swapping the global tracer
        across an ``await`` would misattribute spans from interleaved
        connections.  Store-registry counter deltas taken around the
        call ship back with the span rows.
        """
        capture = Tracer(enabled=True)
        ctx = request.trace or {}
        attrs: Dict[str, Any] = {"pid": os.getpid()}
        if ctx.get("id") is not None:
            attrs["trace_id"] = str(ctx["id"])
        if ctx.get("parent") is not None:
            attrs["parent_span"] = ctx["parent"]
        registry = self._store_registry()
        before = (registry.counters_snapshot()
                  if registry is not None else {})
        name = f"net.server.{request.method}"
        try:
            if asyncio.iscoroutinefunction(handler):
                with capture.span(name, "net", **attrs):
                    result = await handler(request.params)
            else:
                with use_tracer(capture):
                    with capture.span(name, "net", **attrs):
                        result = handler(request.params)
        except CrashError:
            raise    # the process "died": nothing ships
        except ReproError as exc:
            # Ship the capture with the error response too — the
            # handler span (closed with its error recorded) is most
            # interesting exactly when the request failed.
            exc.wire_telemetry = self._capture_payload(  # type: ignore[attr-defined]
                capture, registry, before)
            raise
        return result, self._capture_payload(capture, registry, before)

    def _capture_payload(self, capture: Tracer, registry,
                         before: Dict[str, float]) -> Dict[str, Any]:
        payload = capture_payload(
            capture, [registry] if registry is not None else [], before)
        payload["spans"] = _json_safe(payload["spans"])
        return payload

    # -- operational snapshots (ops.stats / ops.health) --------------------

    def slo_snapshot(self) -> Dict[str, Any]:
        """Rolling latency/error windows: ``{"all": ..., "methods":
        {method: ...}}`` (see :class:`~repro.obs.SloWindow`)."""
        return {
            "all": self._slo_all.snapshot(),
            "methods": {method: window.snapshot()
                        for method, window in sorted(self._slo.items())},
        }

    def operational_snapshot(self) -> Dict[str, Any]:
        """The full ``ops.stats`` payload (see docs/API.md)."""
        metrics: Dict[str, Any] = {}
        store_registry = self._store_registry()
        if store_registry is not None:
            metrics.update(store_registry.snapshot())
        metrics.update(self.registry.snapshot())
        store_info: Dict[str, Any] = {"type": type(self.store).__name__}
        try:
            store_info["head_sequence"] = self.store.head_sequence()
            store_info["snapshot_horizon"] = self.store.snapshot_horizon()
        except CrashError:
            raise
        except ReproError as exc:
            store_info["error"] = f"{error_code(exc)}: {exc}"
        store_info["recoveries"] = int(metrics.get("cloud.recoveries", 0))
        return {
            "server": self.name,
            "pid": os.getpid(),
            "protocol": wire.PROTOCOL_VERSION,
            "features": self.features(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "connections": {
                "active": len(self._writers),
                "total": int(self._connections_total.value),
                "poll_waiters": self._poll_waiters,
            },
            "requests": {
                "total": int(self._requests_total.value),
                "errors": int(self._errors_total.value),
                "bytes_in": int(self._bytes_in.value),
                "bytes_out": int(self._bytes_out.value),
            },
            "store": store_info,
            "slo": self.slo_snapshot(),
            "metrics": metrics,
            "request_log": (self.request_log.status()
                            if self.request_log is not None
                            else {"enabled": False}),
        }

    def health_snapshot(self) -> Dict[str, Any]:
        """The ``ops.health`` payload: cheap liveness + degradation.

        ``ok`` — the store answers and the rolling window is sane;
        ``degraded`` — the store answers but more than half of a
        meaningfully sized recent window errored (client-caused error
        codes count, hence the deliberately high bar); ``failing`` —
        the store itself cannot be read.
        """
        checks: Dict[str, Any] = {}
        status = "ok"
        try:
            checks["head_sequence"] = self.store.head_sequence()
            checks["store"] = "ok"
        except CrashError:
            raise
        except ReproError as exc:
            checks["store"] = f"{error_code(exc)}: {exc}"
            status = "failing"
        checks["window_requests"] = self._slo_all.window_size
        checks["window_error_rate"] = round(self._slo_all.error_rate, 6)
        if (status == "ok" and self._slo_all.window_size >= 20
                and self._slo_all.error_rate > 0.5):
            status = "degraded"
        return {
            "status": status,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "checks": checks,
        }

    async def _notify_mutation(self) -> None:
        assert self._mutated is not None
        async with self._mutated:
            self._mutated.notify_all()

    # -- store method handlers --------------------------------------------

    def _h_get(self, params: Dict[str, Any]) -> Dict[str, Any]:
        req = wire.GetRequest.from_params(params)
        obj = self.store.get(req.path)
        return wire.GetResponse(object=wire.encode_object(obj)).to_params()

    def _h_get_many(self, params: Dict[str, Any]) -> Dict[str, Any]:
        req = wire.GetManyRequest.from_params(params)
        found = self.store.get_many(req.paths)
        return wire.GetManyResponse(
            objects=[wire.encode_object(o) for o in found.values()]
        ).to_params()

    def _h_commit(self, params: Dict[str, Any]) -> Dict[str, Any]:
        req = wire.CommitRequest.from_params(params)
        versions = self.store.commit(wire.decode_batch(req.ops))
        return wire.CommitResponse(versions=versions).to_params()

    def _h_list_dir(self, params: Dict[str, Any]) -> Dict[str, Any]:
        req = wire.ListDirRequest.from_params(params)
        return wire.ListDirResponse(
            children=self.store.list_dir(req.directory)).to_params()

    async def _h_poll_dir(self, params: Dict[str, Any]) -> Dict[str, Any]:
        req = wire.PollDirRequest.from_params(params)
        assert self._mutated is not None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, req.wait_ms) / 1000.0
        while True:
            events, cursor = self.store.poll_dir(req.directory,
                                                 req.after_sequence)
            remaining = deadline - loop.time()
            if events or remaining <= 0:
                return wire.PollDirResponse(
                    events=[wire.encode_event(e) for e in events],
                    cursor=cursor).to_params()
            async with self._mutated:
                self._poll_waiters += 1
                try:
                    await asyncio.wait_for(self._mutated.wait(),
                                           timeout=remaining)
                except asyncio.TimeoutError:
                    pass
                finally:
                    self._poll_waiters -= 1

    def _h_compact(self, params: Dict[str, Any]) -> Dict[str, Any]:
        wire.CompactRequest.from_params(params)
        truncated = self.store.compact()
        return wire.CompactResponse(truncated=truncated).to_params()

    def _h_horizon(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return wire.HorizonResponse(
            horizon=self.store.snapshot_horizon()).to_params()

    def _h_head_sequence(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return wire.HeadSequenceResponse(
            sequence=self.store.head_sequence()).to_params()

    def _h_adversary_view(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return wire.AdversaryViewResponse(
            objects=[wire.encode_object(o)
                     for o in self.store.adversary_view()]).to_params()

    def _h_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        wire.StatsRequest.from_params(params)
        return wire.StatsResponse(
            stats=self.operational_snapshot()).to_params()

    def _h_health(self, params: Dict[str, Any]) -> Dict[str, Any]:
        wire.HealthRequest.from_params(params)
        snap = self.health_snapshot()
        return wire.HealthResponse(
            status=snap["status"], uptime_s=snap["uptime_s"],
            checks=snap["checks"]).to_params()


class ServerThread:
    """A :class:`StoreServer` on a daemon thread (tests, chaos, bench).

    ``start()`` blocks until the socket is bound and returns the URL.
    ``stop()`` shuts the loop down and joins the thread; if the hosted
    store raised :class:`~repro.errors.CrashError`, the server has
    already aborted itself and :attr:`crashed` carries the exception.
    """

    def __init__(self, store: CloudStoreProtocol,
                 host: str = "127.0.0.1", port: int = 0,
                 name: str = "repro-store",
                 request_log: Optional[RequestLog] = None) -> None:
        self._store = store
        self._host = host
        self._port = port
        self._name = name
        self._request_log = request_log
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[StoreServer] = None
        self.url: str = ""

    @property
    def crashed(self) -> Optional[CrashError]:
        return self.server.crashed if self.server is not None else None

    @property
    def poll_waiters(self) -> int:
        """Parked ``poll_dir`` long-polls (see
        :attr:`StoreServer.poll_waiters`); reading an int across the
        loop thread is atomic under the GIL."""
        return self.server.poll_waiters if self.server is not None else 0

    def start(self) -> str:
        self._thread = threading.Thread(
            target=self._run, name="repro-store-server", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.url

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self.server = StoreServer(self._store, host=self._host,
                                  port=self._port, name=self._name,
                                  request_log=self._request_log)
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.url = self.server.url
        self._ready.set()
        stopper = asyncio.ensure_future(self._stop_event.wait())
        closer = asyncio.ensure_future(self.server.closed.wait())
        try:
            await asyncio.wait({stopper, closer},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            stopper.cancel()
            closer.cancel()
            await self.server.stop()

    def stop(self) -> None:
        """Graceful shutdown; safe to call twice."""
        if self._thread is None:
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass    # loop already gone (crash shutdown)
        self._thread.join(timeout=10)
        self._thread = None
