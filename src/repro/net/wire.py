"""Wire schema of the store network protocol (:mod:`repro.net`).

**Framing.**  Every message is one *frame*: a 4-byte big-endian length
prefix followed by that many bytes of UTF-8 JSON.  Frames larger than
:data:`MAX_FRAME_BYTES` are rejected with
:class:`~repro.errors.WireError` before allocation (a malicious peer
cannot make the other side buffer gigabytes).  Binary payloads travel as
base64 strings inside the JSON body.

**Envelopes.**  A request frame decodes to :class:`Request` —
``{"id": n, "method": "store.get", "params": {...}}`` — and a response
frame to :class:`Response` — ``{"id": n, "ok": true, "result": {...}}``
or ``{"id": n, "ok": false, "error": {"code": ..., "message": ...}}``.
``id`` echoes the request so a client can pipeline; it must be a JSON
integer and is *required* — a missing or non-integer id raises
:class:`~repro.errors.ValidationError` (code ``validation``) so a
malformed frame can never alias request 0.  Error codes are the stable
strings of the :mod:`repro.errors` taxonomy (see
:func:`repro.errors.error_code`); :func:`error_to_wire` /
:func:`wire_to_error` convert between exception objects and the wire
form, with unknown codes degrading to plain
:class:`~repro.errors.ReproError` on the receiving side.

**Trace context.**  A request may carry an optional ``trace`` object —
``{"id": "<hex trace id>", "parent": <client span id>}`` — asking the
server to run the handler under a distributed-trace capture and ship
the resulting span rows and counter deltas back on the response's
optional ``telemetry`` object.  Both keys are *omitted entirely* when
unused, keeping the non-traced envelope byte-identical to protocol
version 1 as shipped (``tests/test_footprint.py`` pins per-RPC wire
bytes).

**Handshake.**  The first exchange on every connection must be
``hello``: the client sends its :data:`PROTOCOL_VERSION`, the server
answers with its own plus a feature list (``"store"``; ``"trace"`` for
trace-context propagation; ``"ops"`` for the read-only ``ops.stats`` /
``ops.health`` surface).  A version mismatch fails the connection
with code ``protocol_version``.  Versioning rule: additive, backwards-compatible
changes (new optional params, new methods, new features) keep the
version; anything that changes the meaning of an existing field bumps
it, and servers refuse clients they cannot serve faithfully.

**Method payloads.**  One typed request/response dataclass pair per
contract method (``CommitRequest``/``CommitResponse``, ...) — the store
writes only through ``store.commit`` — each knowing its
``METHOD`` string and its ``to_params``/``from_params`` codec.
:data:`METHODS` maps the method string to the pair — the server
dispatches and the client marshals through that single table, so a
schema change is one edit here plus its handler.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

from repro.cloud.protocol import BatchDelete, BatchPut, CloudBatch
from repro.cloud.store import CloudObject, DirectoryEvent
from repro.errors import ReproError, ValidationError, WireError, \
    error_code, error_for_code

#: Bumped on incompatible schema changes (see the module docstring).
PROTOCOL_VERSION = 1

#: Hello feature strings (additive capabilities within one protocol
#: version).  Clients must treat unknown features as ignorable.
FEATURE_STORE = "store"
FEATURE_TRACE = "trace"
FEATURE_OPS = "ops"

#: Upper bound on a single frame.  Generous for group metadata (records
#: are a few KiB) while bounding what a peer can force us to buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(body)) + body


def decode_frame_length(header: bytes) -> int:
    """Validated body length from the 4-byte prefix."""
    if len(header) != _LENGTH.size:
        raise WireError("truncated frame header")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"peer announced a {length}-byte frame "
                        f"(limit {MAX_FRAME_BYTES})")
    return length


def decode_frame_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError("frame body is not valid JSON") from exc
    if not isinstance(payload, dict):
        raise WireError("frame body must be a JSON object")
    return payload


def b64e(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64d(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise WireError("invalid base64 payload") from exc


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

def _envelope_id(obj: Dict[str, Any], kind: str) -> int:
    """The envelope's ``id``, validated strictly.

    The id must be present and a JSON integer (bools are rejected —
    they are ``int`` subclasses in Python but not request ids).  A
    missing or malformed id raises :class:`ValidationError` rather than
    silently defaulting to 0, which would alias an attacker-chosen or
    truncated frame onto a legitimate request id.
    """
    if "id" not in obj:
        raise ValidationError(f"{kind} envelope is missing its id")
    raw = obj["id"]
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(
            f"{kind} envelope id must be an integer, got {raw!r}")
    return raw


@dataclass(frozen=True)
class Request:
    """One RPC request envelope.

    ``trace`` is the optional distributed-trace context —
    ``{"id": "<hex>", "parent": <span id>}`` — serialized only when
    set so a non-traced request stays byte-identical on the wire.
    """

    id: int
    method: str
    params: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None

    def to_wire(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"id": self.id, "method": self.method,
                               "params": self.params}
        if self.trace is not None:
            obj["trace"] = self.trace
        return obj

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "Request":
        try:
            method = obj["method"]
        except KeyError as exc:
            raise WireError("malformed request envelope") from exc
        params = obj.get("params", {})
        if not isinstance(method, str) or not isinstance(params, dict):
            raise WireError("malformed request envelope")
        request_id = _envelope_id(obj, "request")
        trace = obj.get("trace")
        if trace is not None and not isinstance(trace, dict):
            raise WireError("malformed request trace context")
        return cls(id=request_id, method=method, params=params,
                   trace=trace)


@dataclass(frozen=True)
class WireFault:
    """The error half of a failed :class:`Response`."""

    code: str
    message: str

    def to_wire(self) -> Dict[str, Any]:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "WireFault":
        return cls(code=str(obj.get("code", "internal")),
                   message=str(obj.get("message", "")))


@dataclass(frozen=True)
class Response:
    """One RPC response envelope (success XOR error).

    ``telemetry`` piggybacks the server-side capture of a traced
    request — ``{"spans": [row, ...], "counters": {name: delta},
    "dropped": n, "pid": n}`` — and is serialized only when present,
    so responses to non-traced requests stay byte-identical.
    """

    id: int
    result: Optional[Dict[str, Any]] = None
    error: Optional[WireFault] = None
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_wire(self) -> Dict[str, Any]:
        if self.error is not None:
            obj: Dict[str, Any] = {"id": self.id, "ok": False,
                                   "error": self.error.to_wire()}
        else:
            obj = {"id": self.id, "ok": True, "result": self.result or {}}
        if self.telemetry is not None:
            obj["telemetry"] = self.telemetry
        return obj

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "Response":
        try:
            ok = bool(obj["ok"])
        except KeyError as exc:
            raise WireError("malformed response envelope") from exc
        request_id = _envelope_id(obj, "response")
        telemetry = obj.get("telemetry")
        if telemetry is not None and not isinstance(telemetry, dict):
            raise WireError("malformed response telemetry")
        if ok:
            result = obj.get("result", {})
            if not isinstance(result, dict):
                raise WireError("malformed response result")
            return cls(id=request_id, result=result, telemetry=telemetry)
        error = obj.get("error")
        if not isinstance(error, dict):
            raise WireError("malformed response error")
        return cls(id=request_id, error=WireFault.from_wire(error),
                   telemetry=telemetry)


def error_to_wire(exc: BaseException) -> WireFault:
    """Map an exception onto its stable wire code."""
    return WireFault(code=error_code(exc), message=str(exc))


def wire_to_error(fault: WireFault) -> ReproError:
    """Reconstruct the closest matching exception for a wire fault."""
    return error_for_code(fault.code, fault.message)


# ---------------------------------------------------------------------------
# Shared object codecs
# ---------------------------------------------------------------------------

def encode_object(obj: CloudObject) -> Dict[str, Any]:
    return {"path": obj.path, "data": b64e(obj.data),
            "version": obj.version}


def decode_object(obj: Dict[str, Any]) -> CloudObject:
    try:
        return CloudObject(path=obj["path"], data=b64d(obj["data"]),
                           version=int(obj["version"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError("malformed object record") from exc


def encode_event(event: DirectoryEvent) -> Dict[str, Any]:
    return {"seq": event.sequence, "path": event.path,
            "kind": event.kind, "version": event.version}


def decode_event(obj: Dict[str, Any]) -> DirectoryEvent:
    try:
        return DirectoryEvent(sequence=int(obj["seq"]), path=obj["path"],
                              kind=obj["kind"], version=int(obj["version"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError("malformed directory event") from exc


def encode_batch(batch: CloudBatch) -> List[Dict[str, Any]]:
    ops: List[Dict[str, Any]] = []
    for op in batch.ops:
        if isinstance(op, BatchPut):
            ops.append({"op": "put", "path": op.path,
                        "data": b64e(op.data),
                        "expected_version": op.expected_version})
        elif isinstance(op, BatchDelete):
            ops.append({"op": "delete", "path": op.path,
                        "ignore_missing": op.ignore_missing})
        else:  # pragma: no cover - defensive
            raise WireError(f"unknown batch operation {op!r}")
    return ops


def decode_batch(ops: List[Dict[str, Any]]) -> CloudBatch:
    batch = CloudBatch()
    for op in ops:
        try:
            kind = op["op"]
            if kind == "put":
                expected = op.get("expected_version")
                batch.put(op["path"], b64d(op["data"]),
                          int(expected) if expected is not None else None)
            elif kind == "delete":
                batch.delete(op["path"],
                             bool(op.get("ignore_missing", False)))
            else:
                raise WireError(f"unknown batch op kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError("malformed batch operation") from exc
    return batch


# ---------------------------------------------------------------------------
# Typed method payloads
# ---------------------------------------------------------------------------

class _Message:
    """Base for typed payloads: default codec is field-by-field JSON."""

    METHOD: ClassVar[str] = ""

    def to_params(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_params(cls, params: Dict[str, Any]):
        try:
            return cls(**params)
        except TypeError as exc:
            raise WireError(
                f"malformed {cls.__name__} payload: {exc}") from exc


@dataclass
class HelloRequest(_Message):
    METHOD: ClassVar[str] = "hello"
    protocol: int = PROTOCOL_VERSION
    client: str = "repro"


@dataclass
class HelloResponse(_Message):
    METHOD: ClassVar[str] = "hello"
    protocol: int = PROTOCOL_VERSION
    server: str = "repro-store"
    features: List[str] = field(default_factory=lambda: ["store"])


@dataclass
class GetRequest(_Message):
    METHOD: ClassVar[str] = "store.get"
    path: str = ""


@dataclass
class GetResponse(_Message):
    METHOD: ClassVar[str] = "store.get"
    object: Dict[str, Any] = field(default_factory=dict)


@dataclass
class GetManyRequest(_Message):
    METHOD: ClassVar[str] = "store.get_many"
    paths: List[str] = field(default_factory=list)


@dataclass
class GetManyResponse(_Message):
    METHOD: ClassVar[str] = "store.get_many"
    objects: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class CommitRequest(_Message):
    METHOD: ClassVar[str] = "store.commit"
    ops: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class CommitResponse(_Message):
    METHOD: ClassVar[str] = "store.commit"
    versions: Dict[str, int] = field(default_factory=dict)


@dataclass
class ListDirRequest(_Message):
    METHOD: ClassVar[str] = "store.list_dir"
    directory: str = ""


@dataclass
class ListDirResponse(_Message):
    METHOD: ClassVar[str] = "store.list_dir"
    children: List[str] = field(default_factory=list)


@dataclass
class PollDirRequest(_Message):
    METHOD: ClassVar[str] = "store.poll_dir"
    directory: str = ""
    after_sequence: int = 0
    #: Server-side long-poll budget; 0 returns immediately (the
    #: in-process ``poll_dir`` semantics).
    wait_ms: float = 0.0


@dataclass
class PollDirResponse(_Message):
    METHOD: ClassVar[str] = "store.poll_dir"
    events: List[Dict[str, Any]] = field(default_factory=list)
    cursor: int = 0


@dataclass
class CompactRequest(_Message):
    METHOD: ClassVar[str] = "store.compact"


@dataclass
class CompactResponse(_Message):
    METHOD: ClassVar[str] = "store.compact"
    truncated: int = 0


@dataclass
class HorizonRequest(_Message):
    METHOD: ClassVar[str] = "store.snapshot_horizon"


@dataclass
class HorizonResponse(_Message):
    METHOD: ClassVar[str] = "store.snapshot_horizon"
    horizon: int = 0


@dataclass
class HeadSequenceRequest(_Message):
    METHOD: ClassVar[str] = "store.head_sequence"


@dataclass
class HeadSequenceResponse(_Message):
    METHOD: ClassVar[str] = "store.head_sequence"
    sequence: int = 0


@dataclass
class AdversaryViewRequest(_Message):
    """Test/audit interface: the honest-but-curious provider's view.

    Served so remote runs can execute the same security assertions and
    chaos digests as in-process runs; a hardened deployment would gate
    this behind operator authentication."""

    METHOD: ClassVar[str] = "store.adversary_view"


@dataclass
class AdversaryViewResponse(_Message):
    METHOD: ClassVar[str] = "store.adversary_view"
    objects: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class StatsRequest(_Message):
    """Read-only operational snapshot of a running server (uptime,
    connection gauges, merged metrics, per-method SLO windows,
    journal-recovery state, request-log status)."""

    METHOD: ClassVar[str] = "ops.stats"


@dataclass
class StatsResponse(_Message):
    METHOD: ClassVar[str] = "ops.stats"
    stats: Dict[str, Any] = field(default_factory=dict)


@dataclass
class HealthRequest(_Message):
    """Liveness/health probe: cheap enough for a tight CI loop."""

    METHOD: ClassVar[str] = "ops.health"


@dataclass
class HealthResponse(_Message):
    METHOD: ClassVar[str] = "ops.health"
    status: str = "ok"                   # ok | degraded | failing
    uptime_s: float = 0.0
    checks: Dict[str, Any] = field(default_factory=dict)


#: Wire methods whose request mutates store state: every store write is
#: a commit.  A connection lost after sending one of these leaves the
#: outcome ambiguous — the client must NOT map that onto the retry-safe
#: ``unavailable`` code — and the server wakes parked long-polls after
#: each one.
MUTATING_WIRE_METHODS = frozenset({"store.commit", "store.compact"})

#: method string -> (request type, response type); the dispatch table.
METHODS: Dict[str, Tuple[Type[_Message], Type[_Message]]] = {
    cls.METHOD: (cls, resp) for cls, resp in [
        (HelloRequest, HelloResponse),
        (GetRequest, GetResponse),
        (GetManyRequest, GetManyResponse),
        (CommitRequest, CommitResponse),
        (ListDirRequest, ListDirResponse),
        (PollDirRequest, PollDirResponse),
        (CompactRequest, CompactResponse),
        (HorizonRequest, HorizonResponse),
        (HeadSequenceRequest, HeadSequenceResponse),
        (AdversaryViewRequest, AdversaryViewResponse),
        (StatsRequest, StatsResponse),
        (HealthRequest, HealthResponse),
    ]
}
