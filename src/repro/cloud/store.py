"""In-process cloud object store with directory long polling.

Semantics follow what the paper uses from Dropbox:

* PUT/GET of opaque objects addressed by ``/group/partition`` style paths;
* optimistic concurrency via per-object version numbers;
* *long polling at directory level*: a client subscribes to a directory and
  is handed every subsequent change event in order (§V-A: "In Dropbox, long
  polling works at the directory level, so we index the group metadata as a
  bi-level hierarchy");
* an atomic multi-object :meth:`CloudStore.commit` — the server-side batch
  endpoint every real object store offers (Dropbox ``/files/upload_session
  /finish_batch``, S3 multi-object ops) and the store's one write.  One
  round trip carries a conditional descriptor put plus all partition
  puts/deletes; per-object versions and directory events are preserved
  exactly as if the operations had been committed one by one.  A single
  put is a one-op commit (:meth:`~repro.cloud.CloudStoreProtocol.put`).

The store is honest-but-curious: it faithfully executes requests while
keeping everything it has seen readable through :meth:`adversary_view`,
which the security tests use to verify that stored metadata never reveals
group keys.

Metrics: each API call counts one request; ``bytes_in`` is upload volume
(put payloads), ``bytes_out`` is download volume (get payloads).  A
commit counts one request however many objects it writes (that is the
point) and increments ``batch_commits``, so ``batch_commits`` counts
write requests.

Snapshot compaction: the event log is the cold-start replay source, so an
append-only log makes reconnect O(history).  :meth:`CloudStore.compact`
folds the current log into a :class:`StoreSnapshot` — one
:class:`SnapshotEntry` per distinct path recording the *last* event that
touched it (puts for live objects, delete tombstones for dead ones) — and
truncates the log.  ``poll_dir`` then serves a stale cursor by merging
synthetic events reconstructed from the snapshot (each carrying its real
last-writer sequence number, so arbitrary mid-prefix cursors stay exact)
ahead of the surviving suffix events.  Tombstones are retained so a
client that slept through its own revocation still sees the delete; the
snapshot is bounded by the number of distinct paths ever written, i.e.
O(state), not O(history).  Pass ``compact_every=K`` to compact
automatically after every K committed mutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cloud.latency import LatencyModel
from repro.cloud.protocol import (
    BatchDelete,
    BatchPut,
    CloudBatch,
    CloudStoreProtocol,
)
from repro.errors import ConflictError, NotFoundError, StorageError
from repro.obs.metrics import CounterField, MetricRegistry
from repro.obs.spans import span as _span


@dataclass(frozen=True)
class CloudObject:
    path: str
    data: bytes
    version: int


@dataclass(frozen=True)
class DirectoryEvent:
    """One change visible to a long-polling watcher."""

    sequence: int
    path: str
    kind: str        # "put" | "delete"
    version: int


#: One validated write handed to a store's ``_write`` hook:
#: ``(kind "put" | "delete", normalized path, data or None, version)``.
StagedWrite = Tuple[str, str, Optional[bytes], int]


@dataclass(frozen=True)
class SnapshotEntry:
    """Per-path outcome of a compacted event-log prefix.

    ``kind == "put"`` records a live object; ``kind == "delete"`` is a
    tombstone kept so stale watchers still learn about the removal.
    ``sequence`` is the sequence number of the last prefix event that
    touched the path, which is what keeps mid-prefix poll cursors exact
    across a truncation.
    """

    path: str
    kind: str        # "put" | "delete"
    version: int
    sequence: int


@dataclass(frozen=True)
class StoreSnapshot:
    """Materialized state of every event at or below ``horizon``."""

    horizon: int
    entries: Tuple[SnapshotEntry, ...]   # ordered by sequence

    def entry_for(self, path: str) -> Optional[SnapshotEntry]:
        for entry in self.entries:
            if entry.path == path:
                return entry
        return None


def fold_snapshot(previous: Optional[StoreSnapshot],
                  events: Sequence[DirectoryEvent]) -> StoreSnapshot:
    """Fold ``events`` (the log being truncated) into ``previous``.

    Folding is associative — compacting twice is the same as compacting
    once over the concatenation — which is what makes double compaction
    idempotent and incremental compaction correct.
    """
    by_path: Dict[str, SnapshotEntry] = (
        {entry.path: entry for entry in previous.entries}
        if previous is not None else {}
    )
    horizon = previous.horizon if previous is not None else 0
    for event in events:
        horizon = max(horizon, event.sequence)
        by_path[event.path] = SnapshotEntry(
            path=event.path, kind=event.kind,
            version=event.version, sequence=event.sequence,
        )
    entries = tuple(sorted(by_path.values(), key=lambda e: e.sequence))
    return StoreSnapshot(horizon=horizon, entries=entries)


def snapshot_events(snapshot: Optional[StoreSnapshot], directory: str,
                    after_sequence: int) -> List[DirectoryEvent]:
    """Synthetic events a watcher at ``after_sequence`` would have seen
    from the compacted prefix.  ``directory`` must already be normalized
    with a trailing slash (the ``poll_dir`` convention)."""
    if snapshot is None:
        return []
    return [
        DirectoryEvent(sequence=entry.sequence, path=entry.path,
                       kind=entry.kind, version=entry.version)
        for entry in snapshot.entries
        if entry.sequence > after_sequence
        and (entry.path.startswith(directory)
             or entry.path == directory[:-1])
    ]


class CloudMetrics:
    """Round-trip accounting shared by every store implementation.

    Values live in a ``repro.obs`` :class:`~repro.obs.MetricRegistry`
    under the ``cloud.*`` namespace; the attributes are views onto it
    (see :class:`~repro.obs.CounterField`).
    """

    requests = CounterField("cloud.requests")
    bytes_in = CounterField("cloud.bytes_in")
    bytes_out = CounterField("cloud.bytes_out")
    batch_commits = CounterField("cloud.batch_commits")
    simulated_latency_ms = CounterField("cloud.simulated_latency_ms")

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        for name in ("cloud.requests", "cloud.bytes_in", "cloud.bytes_out",
                     "cloud.batch_commits", "cloud.simulated_latency_ms"):
            self.registry.counter(name)

    def reset(self) -> None:
        self.registry.reset()

    def __repr__(self) -> str:
        return (f"CloudMetrics(requests={self.requests}, "
                f"bytes_in={self.bytes_in}, bytes_out={self.bytes_out}, "
                f"batch_commits={self.batch_commits})")


class CloudStore(CloudStoreProtocol):
    """The storage + broadcast substrate (in-memory reference
    implementation of :class:`~repro.cloud.CloudStoreProtocol`).

    Every contract method is written once, here, and reaches storage
    only through six private hooks: :meth:`_lookup` (the live object at a
    normalized path, or ``None``), :meth:`_version_of` (its version, 0 if
    absent), :meth:`_live_paths`, :meth:`_log` (the events past the
    snapshot, in order), :meth:`_write` (apply a validated write set of
    ``(kind, path, data, version)`` tuples, emitting one event each) and
    :meth:`_fold` (truncate the log into a folded snapshot).  This class
    implements them over a dict and a list; :class:`~repro.cloud
    .FileCloudStore` implements them over a directory.
    """

    def __init__(self, latency: Optional[LatencyModel] = None,
                 compact_every: Optional[int] = None) -> None:
        if compact_every is not None and compact_every < 1:
            raise StorageError("compact_every must be a positive interval")
        self._objects: Dict[str, CloudObject] = {}
        self._latency = latency or LatencyModel.disabled()
        self._event_log: List[DirectoryEvent] = []
        self._snapshot: Optional[StoreSnapshot] = None
        self._compact_every = compact_every
        self._mutations_since_compact = 0
        self.metrics = CloudMetrics()
        self._compactions = self.metrics.registry.counter("cloud.compactions")
        self._events_truncated = self.metrics.registry.counter(
            "cloud.events_truncated")

    # -- object API -----------------------------------------------------------

    #: The inherited one-op commit, bound in this class's own namespace:
    #: ``benchmarks/ledger`` times ``CloudStore.put`` by wrapping the
    #: class attribute.
    put = CloudStoreProtocol.put

    def get(self, path: str) -> CloudObject:
        path = _normalize(path)
        with _span("cloud.get", path=path) as sp:
            obj = self._lookup(path)
            if obj is None:
                raise NotFoundError(f"no object at {path}")
            sp.set(bytes=len(obj.data),
                   latency_ms=self._account(bytes_out=len(obj.data)))
            return obj

    def get_many(self, paths: Iterable[str]) -> Dict[str, CloudObject]:
        """Fetch several objects in one round trip.

        Missing paths are silently skipped (they may have been deleted
        between the event that advertised them and this fetch), mirroring
        the per-path ``NotFoundError → skip`` pattern clients used with
        sequential gets.  Returns ``{normalized path: object}``.
        """
        with _span("cloud.get_many") as sp:
            found: Dict[str, CloudObject] = {}
            for path in paths:
                obj = self._lookup(_normalize(path))
                if obj is not None:
                    found[obj.path] = obj
            payload = sum(len(o.data) for o in found.values())
            sp.set(objects=len(found), bytes=payload,
                   latency_ms=self._account(bytes_out=payload))
            return found

    def commit(self, batch: CloudBatch) -> Dict[str, int]:
        """Apply a :class:`CloudBatch` atomically, charged as ONE request.

        Every operation is validated against the store state *as projected
        through the preceding operations of the same batch* before anything
        mutates — a failed conditional put or a delete of a missing object
        raises :class:`ConflictError` / :class:`NotFoundError` and leaves
        the store untouched.  On success the operations apply in order,
        each emitting its ordinary directory event with the same version
        numbers sequential commits would have produced.

        Returns ``{normalized path: new version}`` for the puts.
        """
        with _span("cloud.commit", ops=len(batch.ops),
                   bytes=batch.payload_bytes) as sp:
            staged: List[StagedWrite] = []
            projected: Dict[str, Optional[int]] = {}
            for op in batch.ops:
                path = _normalize(op.path)
                have = ((projected[path] or 0) if path in projected
                        else self._version_of(path))
                if isinstance(op, BatchPut):
                    if op.expected_version is not None and have != op.expected_version:
                        raise ConflictError(
                            f"version conflict on {path}: have {have}, "
                            f"expected {op.expected_version}"
                        )
                    projected[path] = have + 1
                    staged.append(("put", path, op.data, have + 1))
                elif isinstance(op, BatchDelete):
                    if have == 0:
                        if op.ignore_missing:
                            continue
                        raise NotFoundError(f"no object at {path}")
                    projected[path] = None
                    staged.append(("delete", path, None, have))
                else:  # pragma: no cover - defensive
                    raise StorageError(f"unknown batch operation {op!r}")

            sp.set(latency_ms=self._account(bytes_in=batch.payload_bytes))
            self.metrics.batch_commits += 1
            self._write(staged)
            self._note_mutation(len(staged))
            return {path: version for kind, path, _, version in staged
                    if kind == "put"}

    def list_dir(self, directory: str) -> List[str]:
        """Immediate children (paths) under a directory."""
        directory = _normalize(directory).rstrip("/") + "/"
        self._account()
        return sorted({directory + path[len(directory):].split("/")[0]
                       for path in self._live_paths()
                       if path.startswith(directory)})

    # -- long polling ------------------------------------------------------------

    def poll_dir(self, directory: str, after_sequence: int = 0,
                 ) -> Tuple[List[DirectoryEvent], int]:
        """Return events under ``directory`` past ``after_sequence``.

        Models one long-poll round trip: the caller passes the cursor from
        the previous call and receives (possibly empty) ordered events plus
        the new cursor.
        """
        directory = _normalize(directory).rstrip("/") + "/"
        with _span("cloud.poll_dir", dir=directory) as sp:
            sp.set(latency_ms=self._account())
            # The log first: a persistent store adopts another handle's
            # compaction there, before the snapshot is read.
            log = self._log()
            events = snapshot_events(self._snapshot, directory,
                                     after_sequence)
            events += [
                ev for ev in log
                if ev.sequence > after_sequence
                and (ev.path.startswith(directory) or ev.path == directory[:-1])
            ]
            sp.set(events=len(events))
            return events, max(after_sequence, self.head_sequence())

    # -- snapshot compaction -----------------------------------------------------

    def compact(self) -> int:
        """Fold the event log into the snapshot and truncate it.

        Counts one (server-side) request.  Returns the number of event
        records truncated; compacting an already-empty log is a no-op
        (which is what makes back-to-back compactions idempotent).
        """
        with _span("cloud.compact") as sp:
            self._account()
            events = list(self._log())    # _fold may clear the list
            if events:
                snapshot = fold_snapshot(self._snapshot, events)
                self._fold(snapshot)
                self._snapshot = snapshot
                self._compactions.add()
                self._events_truncated.add(len(events))
            sp.set(truncated=len(events), horizon=self.snapshot_horizon())
            return len(events)

    def snapshot_horizon(self) -> int:
        """Highest sequence folded into the snapshot (0 = never compacted).
        Inspection only — no round trip is charged."""
        return self._snapshot.horizon if self._snapshot is not None else 0

    def head_sequence(self) -> int:
        """Sequence of the newest committed mutation (inspection only)."""
        if self._event_log:
            return self._event_log[-1].sequence
        return self.snapshot_horizon()

    # -- adversary interface -------------------------------------------------------

    def adversary_view(self) -> Iterator[CloudObject]:
        """Everything the curious cloud can inspect (for security tests)."""
        return iter([self._lookup(path) for path in self._live_paths()])

    # -- storage hooks -------------------------------------------------------------

    def _lookup(self, path: str) -> Optional[CloudObject]:
        return self._objects.get(path)

    def _version_of(self, path: str) -> int:
        obj = self._objects.get(path)
        return obj.version if obj else 0

    def _live_paths(self) -> Iterable[str]:
        return self._objects.keys()

    def _log(self) -> Sequence[DirectoryEvent]:
        return self._event_log

    def _write(self, staged: Sequence[StagedWrite]) -> None:
        sequence = self.head_sequence()
        for kind, path, data, version in staged:
            if kind == "put":
                self._objects[path] = CloudObject(path, data, version)
            else:
                del self._objects[path]
            sequence += 1
            self._event_log.append(
                DirectoryEvent(sequence, path, kind, version))

    def _fold(self, snapshot: StoreSnapshot) -> None:
        self._event_log.clear()

    # -- internals -----------------------------------------------------------------

    def _note_mutation(self, count: int) -> None:
        """Advance the auto-compaction policy by ``count`` committed
        mutations, compacting when the interval elapses."""
        if self._compact_every is None:
            return
        self._mutations_since_compact += count
        if self._mutations_since_compact >= self._compact_every:
            self._mutations_since_compact = 0
            self.compact()

    def _account(self, bytes_in: int = 0, bytes_out: int = 0) -> float:
        latency_ms = self._latency.sample(bytes_in + bytes_out)
        self.metrics.requests += 1
        self.metrics.bytes_in += bytes_in
        self.metrics.bytes_out += bytes_out
        self.metrics.simulated_latency_ms += latency_ms
        return latency_ms


def _normalize(path: str) -> str:
    if not path or ".." in path.split("/"):
        raise StorageError(f"invalid path {path!r}")
    if not path.startswith("/"):
        path = "/" + path
    while "//" in path:
        path = path.replace("//", "/")
    return path
