"""File-backed cloud store.

Persists the :class:`~repro.cloud.store.CloudStore` contract to a local
directory so separate processes (an administrator CLI invocation, client
daemons) share one storage substrate:

* each object lives at ``objects/<urlsafe path>`` with a sidecar version;
* the event log (long-polling source) is an append-only JSONL file;
* metrics are process-local (not persisted).

Concurrency model: single-writer-at-a-time per object (the paper's single
administrator; the multi-admin extension layers optimistic concurrency on
top via conditional puts, which this store honours).

Crash consistency: every mutation — single put/delete or batch commit —
is first recorded in a ``commit.journal`` written with temp-file +
``os.replace``, then applied (each data/meta file itself replaced
atomically), then logged to the event file, then the journal is removed.
A process killed anywhere in that sequence leaves either no journal (the
mutation never happened) or a complete journal that the next
:class:`FileCloudStore` opened on the directory rolls *forward*: event
lines at or past the journal's first sequence number are truncated, the
journalled ops are re-applied with their recorded versions (idempotent),
and the journal's event lines are appended.  A corrupt ``.meta`` sidecar
or a torn final event-log line is likewise repaired from the log instead
of raising ``StorageError``.  Recovery increments ``cloud.recoveries``
and ``cloud.meta_rebuilds``.

Snapshot compaction reuses the same journal machinery under a second
journal file: :meth:`FileCloudStore.compact` folds ``events.jsonl`` into
``snapshot.json`` (the serialized :class:`~repro.cloud.store
.StoreSnapshot` manifest) by writing the folded manifest to
``compact.journal`` first, then atomically replacing ``snapshot.json``,
then rewriting the event file with only the suffix past the snapshot
horizon, then unlinking the journal.  Every step is idempotent, so a
crash anywhere rolls the compaction *forward* on the next open — the
store never has to undo a half-written snapshot, and mutations are
strictly serialized with compactions so at most one journal kind exists
at any crash.  ``poll_dir`` merges synthetic snapshot events ahead of
the surviving suffix (see :mod:`repro.cloud.store`), keeping stale
cursors exact across truncations.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud.latency import LatencyModel
from repro.cloud.protocol import CloudStoreProtocol
from repro.cloud.store import (
    BatchDelete,
    BatchPut,
    CloudBatch,
    CloudMetrics,
    CloudObject,
    DirectoryEvent,
    SnapshotEntry,
    StoreSnapshot,
    _normalize,
    fold_snapshot,
    snapshot_events,
)
from repro.errors import ConflictError, NotFoundError, StorageError
from repro.faulthook import crash_point
from repro.obs.spans import span as _span


def _encode_snapshot(snapshot: StoreSnapshot) -> bytes:
    return json.dumps({
        "horizon": snapshot.horizon,
        "entries": [
            {"path": e.path, "kind": e.kind, "version": e.version,
             "seq": e.sequence}
            for e in snapshot.entries
        ],
    }).encode("utf-8")


def _slug(path: str) -> str:
    return base64.urlsafe_b64encode(path.encode("utf-8")).decode("ascii")


def _unslug(name: str) -> str:
    return base64.urlsafe_b64decode(name.encode("ascii")).decode("utf-8")


class FileCloudStore(CloudStoreProtocol):
    """Drop-in replacement for :class:`CloudStore` backed by a directory."""

    def __init__(self, root: str | Path,
                 latency: Optional[LatencyModel] = None,
                 compact_every: Optional[int] = None) -> None:
        if compact_every is not None and compact_every < 1:
            raise StorageError("compact_every must be a positive interval")
        self.root = Path(root)
        self._objects_dir = self.root / "objects"
        self._events_path = self.root / "events.jsonl"
        self._journal_path = self.root / "commit.journal"
        self._snapshot_path = self.root / "snapshot.json"
        self._compact_journal_path = self.root / "compact.journal"
        self._objects_dir.mkdir(parents=True, exist_ok=True)
        if not self._events_path.exists():
            self._events_path.write_text("", encoding="utf-8")
        self._latency = latency or LatencyModel.disabled()
        self._compact_every = compact_every
        self._mutations_since_compact = 0
        self.metrics = CloudMetrics()
        self._recoveries = self.metrics.registry.counter("cloud.recoveries")
        self._meta_rebuilds = self.metrics.registry.counter(
            "cloud.meta_rebuilds")
        self._compactions = self.metrics.registry.counter("cloud.compactions")
        self._events_truncated = self.metrics.registry.counter(
            "cloud.events_truncated")
        self._snapshot: Optional[StoreSnapshot] = None
        self._last_seq = 0
        self._recover()
        self._snapshot = self._load_snapshot()
        # Cached so mutations stop paying an O(history) scan per call.
        self._last_seq = max(
            [self.snapshot_horizon()]
            + [event.sequence for event in self._read_events()]
        )

    # -- object API -----------------------------------------------------------

    def put(self, path: str, data: bytes,
            expected_version: Optional[int] = None) -> int:
        path = _normalize(path)
        with _span("cloud.put", path=path, bytes=len(data)) as sp:
            sp.set(latency_ms=self._account(bytes_in=len(data)))
            current = self._current_version(path)
            if expected_version is not None and current != expected_version:
                raise ConflictError(
                    f"version conflict on {path}: have {current}, "
                    f"expected {expected_version}"
                )
            version = current + 1
            self._journaled_apply([("put", path, data, version)])
            self._note_mutation()
            return version

    def get(self, path: str) -> CloudObject:
        path = _normalize(path)
        with _span("cloud.get", path=path) as sp:
            object_path = self._objects_dir / _slug(path)
            if not object_path.exists():
                raise NotFoundError(f"no object at {path}")
            data = object_path.read_bytes()
            sp.set(bytes=len(data),
                   latency_ms=self._account(bytes_out=len(data)))
            version = self._read_version(object_path.with_suffix(".meta"))
            return CloudObject(path=path, data=data, version=version)

    def get_many(self, paths: Iterable[str]) -> Dict[str, CloudObject]:
        """Fetch several objects in one round trip (missing paths skipped)."""
        with _span("cloud.get_many") as sp:
            found: Dict[str, CloudObject] = {}
            for raw in paths:
                path = _normalize(raw)
                object_path = self._objects_dir / _slug(path)
                if not object_path.exists():
                    continue
                found[path] = CloudObject(
                    path=path,
                    data=object_path.read_bytes(),
                    version=self._read_version(object_path.with_suffix(".meta")),
                )
            payload = sum(len(o.data) for o in found.values())
            sp.set(objects=len(found), bytes=payload,
                   latency_ms=self._account(bytes_out=payload))
            return found

    def exists(self, path: str) -> bool:
        return (self._objects_dir / _slug(_normalize(path))).exists()

    def delete(self, path: str) -> None:
        path = _normalize(path)
        object_path = self._objects_dir / _slug(path)
        if not object_path.exists():
            raise NotFoundError(f"no object at {path}")
        version = self._read_version(object_path.with_suffix(".meta"))
        self._account()
        self._journaled_apply([("delete", path, None, version)])
        self._note_mutation()

    def commit(self, batch: CloudBatch) -> Dict[str, int]:
        """Atomic multi-object write; see :meth:`CloudStore.commit`.

        All-or-nothing with respect to validation (no partial application
        on a version conflict) *and* crash-consistent: the whole batch is
        journalled before the first file is touched, so a process killed
        mid-apply rolls the batch forward on the next open (the module
        docstring describes the journal protocol).
        """
        with _span("cloud.commit", ops=len(batch.ops),
                   bytes=batch.payload_bytes) as sp:
            staged = []
            projected: Dict[str, Optional[int]] = {}

            def current(path: str) -> int:
                if path in projected:
                    return projected[path] or 0
                return self._current_version(path)

            for op in batch.ops:
                path = _normalize(op.path)
                have = current(path)
                if isinstance(op, BatchPut):
                    if op.expected_version is not None and have != op.expected_version:
                        raise ConflictError(
                            f"version conflict on {path}: have {have}, "
                            f"expected {op.expected_version}"
                        )
                    version = have + 1
                    projected[path] = version
                    staged.append((op, path, version))
                elif isinstance(op, BatchDelete):
                    if have == 0:
                        if op.ignore_missing:
                            continue
                        raise NotFoundError(f"no object at {path}")
                    projected[path] = None
                    staged.append((op, path, have))
                else:  # pragma: no cover - defensive
                    raise StorageError(f"unknown batch operation {op!r}")

            sp.set(latency_ms=self._account(bytes_in=batch.payload_bytes))
            self.metrics.batch_commits += 1
            versions: Dict[str, int] = {}
            ops = []
            for op, path, version in staged:
                if isinstance(op, BatchPut):
                    ops.append(("put", path, op.data, version))
                    versions[path] = version
                else:
                    ops.append(("delete", path, None, version))
            self._journaled_apply(ops)
            self._note_mutation(len(ops))
            return versions

    def list_dir(self, directory: str) -> List[str]:
        directory = _normalize(directory).rstrip("/") + "/"
        self._account(0)
        children = set()
        for entry in self._objects_dir.iterdir():
            if entry.suffix in (".meta", ".tmp"):
                continue
            path = _unslug(entry.name)
            if path.startswith(directory):
                remainder = path[len(directory):]
                children.add(directory + remainder.split("/")[0])
        return sorted(children)

    # -- long polling ------------------------------------------------------------

    def poll_dir(self, directory: str, after_sequence: int = 0,
                 ) -> Tuple[List[DirectoryEvent], int]:
        directory = _normalize(directory).rstrip("/") + "/"
        with _span("cloud.poll_dir", dir=directory) as sp:
            sp.set(latency_ms=self._account(0))
            events = snapshot_events(self._snapshot, directory,
                                     after_sequence)
            cursor = max(after_sequence, self.snapshot_horizon())
            for event in self._read_events():
                cursor = max(cursor, event.sequence)
                if event.sequence <= after_sequence:
                    continue
                if event.path.startswith(directory) or event.path == directory[:-1]:
                    events.append(event)
            sp.set(events=len(events))
            return events, cursor

    # -- snapshot compaction -----------------------------------------------------

    def compact(self) -> int:
        """Fold ``events.jsonl`` into ``snapshot.json`` and truncate it.

        Crash-consistent via ``compact.journal`` (module docstring);
        counts one request.  Returns the number of event records
        truncated (0 when the log is already empty, making repeated
        compaction idempotent).
        """
        with _span("cloud.compact") as sp:
            self._account()
            events = self._read_events()
            if not events:
                sp.set(truncated=0, horizon=self.snapshot_horizon())
                return 0
            snapshot = fold_snapshot(self._snapshot, events)
            payload = _encode_snapshot(snapshot)
            self._write_atomic(self._compact_journal_path, payload)
            crash_point("cloud.compact.journaled")
            self._apply_compaction(payload, inject=True)
            self._compact_journal_path.unlink()
            self._snapshot = snapshot
            self._last_seq = max(self._last_seq, snapshot.horizon)
            self._compactions.add()
            self._events_truncated.add(len(events))
            sp.set(truncated=len(events), horizon=snapshot.horizon)
            return len(events)

    def snapshot_horizon(self) -> int:
        """Highest sequence folded into the snapshot (0 = never compacted).
        Inspection only — no round trip is charged."""
        return self._snapshot.horizon if self._snapshot is not None else 0

    def head_sequence(self) -> int:
        """Sequence of the newest committed mutation (inspection only)."""
        return self._last_seq

    def _apply_compaction(self, payload: bytes, inject: bool) -> None:
        """Execute (or re-execute, during recovery) a journalled
        compaction: install the snapshot manifest, then drop every event
        line at or below its horizon.  Both steps replace whole files
        atomically and converge to the same state when repeated."""
        self._write_atomic(self._snapshot_path, payload)
        if inject:
            crash_point("cloud.compact.snapshot_written")
        horizon = json.loads(payload.decode("utf-8"))["horizon"]
        kept = [e for e in self._read_events() if e.sequence > horizon]
        lines = "".join(
            json.dumps({"seq": e.sequence, "path": e.path,
                        "kind": e.kind, "version": e.version}) + "\n"
            for e in kept
        )
        self._write_atomic(self._events_path, lines.encode("utf-8"))

    def _load_snapshot(self) -> Optional[StoreSnapshot]:
        if not self._snapshot_path.exists():
            return None
        try:
            record = json.loads(self._snapshot_path.read_text("utf-8"))
            return StoreSnapshot(
                horizon=int(record["horizon"]),
                entries=tuple(
                    SnapshotEntry(path=e["path"], kind=e["kind"],
                                  version=int(e["version"]),
                                  sequence=int(e["seq"]))
                    for e in record["entries"]
                ),
            )
        except (ValueError, KeyError, TypeError) as exc:
            # snapshot.json is only ever installed via os.replace, so a
            # parse failure means tampering, not a crash artifact.
            raise StorageError("corrupt snapshot manifest") from exc

    # -- adversary interface -------------------------------------------------------

    def adversary_view(self):
        for entry in sorted(self._objects_dir.iterdir()):
            if entry.suffix in (".meta", ".tmp"):
                continue
            path = _unslug(entry.name)
            yield CloudObject(
                path=path,
                data=entry.read_bytes(),
                version=self._read_version(entry.with_suffix(".meta")),
            )

    def total_stored_bytes(self, prefix: str = "/") -> int:
        prefix = _normalize(prefix)
        return sum(
            len(obj.data) for obj in self.adversary_view()
            if obj.path.startswith(prefix)
        )

    # -- internals -----------------------------------------------------------------

    def _current_version(self, path: str) -> int:
        """Version of the live object at ``path`` (0 if absent)."""
        object_path = self._objects_dir / _slug(path)
        if not object_path.exists():
            return 0
        return self._read_version(object_path.with_suffix(".meta"))

    @staticmethod
    def _write_atomic(target: Path, data: bytes) -> None:
        """Temp-file + ``os.replace``: the target is always either the
        old bytes or the new bytes, never a torn mix."""
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, target)

    def _journaled_apply(self, ops: Sequence[Tuple]) -> None:
        """Apply ``("put", path, data, version)`` / ``("delete", path,
        None, version)`` ops under the journal protocol (see the module
        docstring).  Versions are absolute, making roll-forward
        idempotent."""
        first_seq = self._last_sequence() + 1
        records = []
        events = []
        for offset, (kind, path, data, version) in enumerate(ops):
            record = {"kind": kind, "path": path, "version": version}
            if kind == "put":
                record["data"] = base64.b64encode(data).decode("ascii")
            records.append(record)
            events.append({"seq": first_seq + offset, "path": path,
                           "kind": kind, "version": version})
        journal = {"ops": records, "events": events}
        self._write_atomic(self._journal_path,
                           json.dumps(journal).encode("utf-8"))
        crash_point("cloud.commit.journaled")
        self._apply_records(records, inject=True)
        self._append_event_lines(events)
        self._journal_path.unlink()

    def _apply_records(self, records: Sequence[Dict], inject: bool) -> None:
        for index, record in enumerate(records):
            if record["kind"] == "put":
                data = base64.b64decode(record["data"].encode("ascii"))
                self._apply_put(record["path"], data, record["version"],
                                inject=inject)
            else:
                self._apply_delete(record["path"])
            if inject and index + 1 < len(records):
                crash_point("cloud.commit.apply")

    def _apply_put(self, path: str, data: bytes, version: int,
                   inject: bool = True) -> None:
        object_path = self._objects_dir / _slug(path)
        self._write_atomic(object_path, data)
        if inject:
            crash_point("store.put.data_written")
        self._write_atomic(
            object_path.with_suffix(".meta"),
            json.dumps({"version": version}).encode("utf-8"),
        )

    def _apply_delete(self, path: str) -> None:
        object_path = self._objects_dir / _slug(path)
        object_path.unlink(missing_ok=True)
        object_path.with_suffix(".meta").unlink(missing_ok=True)

    def _append_event_lines(self, events: Sequence[Dict]) -> None:
        with self._events_path.open("a", encoding="utf-8") as handle:
            for record in events:
                handle.write(json.dumps(record) + "\n")
        if events:
            self._last_seq = max(self._last_seq,
                                 max(e["seq"] for e in events))

    def _recover(self) -> None:
        """Roll an interrupted mutation forward from ``commit.journal``.

        The journal itself is written atomically, so its presence means
        a complete op list with pre-assigned event sequence numbers; any
        subset of those file writes and event lines may have landed
        before the crash.  Truncating the event log below the journal's
        first sequence and re-applying everything makes the mutation
        exactly-once regardless of where the process died.
        """
        for stray in self._objects_dir.glob("*.tmp"):
            stray.unlink(missing_ok=True)
        for stray in self.root.glob("*.tmp"):
            stray.unlink(missing_ok=True)
        self._trim_torn_event_tail()
        if self._compact_journal_path.exists():
            # Mutations and compactions are strictly serialized, so a
            # compact journal excludes a commit journal; roll the
            # compaction forward (idempotent, see _apply_compaction).
            payload = self._compact_journal_path.read_bytes()
            self._apply_compaction(payload, inject=False)
            self._compact_journal_path.unlink()
            self._recoveries.add()
            return
        if not self._journal_path.exists():
            return
        journal = json.loads(self._journal_path.read_text("utf-8"))
        events = journal["events"]
        if events:
            first_seq = events[0]["seq"]
            kept = [e for e in self._read_events() if e.sequence < first_seq]
            lines = "".join(
                json.dumps({"seq": e.sequence, "path": e.path,
                            "kind": e.kind, "version": e.version}) + "\n"
                for e in kept
            )
            self._write_atomic(self._events_path, lines.encode("utf-8"))
        self._apply_records(journal["ops"], inject=False)
        self._append_event_lines(events)
        self._journal_path.unlink()
        self._recoveries.add()

    def _trim_torn_event_tail(self) -> None:
        """Drop a torn final event line left by a crash mid-append.

        Skipping it on read is not enough: an unterminated tail would
        corrupt the *next* appended line, and a terminated-but-corrupt
        tail would turn into a mid-file parse error once more events
        follow it.  The dropped line's mutation is re-applied by the
        journal roll-forward (events are only appended while the journal
        exists on disk).
        """
        raw = self._events_path.read_bytes()
        if not raw:
            return
        body, _, tail = raw.rpartition(b"\n")
        if tail:
            # No trailing newline: the tail is a torn partial line.
            self._write_atomic(self._events_path,
                               body + b"\n" if body else b"")
            return
        last_line = body[body.rfind(b"\n") + 1:]
        if not last_line.strip():
            return
        try:
            record = json.loads(last_line.decode("utf-8"))
            int(record["seq"])
            record["path"], record["kind"], int(record["version"])
        except (ValueError, KeyError, UnicodeDecodeError):
            self._write_atomic(self._events_path,
                               raw[:body.rfind(b"\n") + 1])

    def _read_version(self, meta_path: Path) -> int:
        if not meta_path.exists():
            return self._rebuild_version(meta_path)
        try:
            return int(json.loads(meta_path.read_text("utf-8"))["version"])
        except (ValueError, KeyError):
            return self._rebuild_version(meta_path)

    def _rebuild_version(self, meta_path: Path) -> int:
        """Repair a missing/corrupt ``.meta`` sidecar from the event log
        (the data file exists, so the object is live; its last ``put``
        event carries the version).  After a compaction the object's put
        may live in the snapshot manifest rather than the log, so the
        snapshot entry seeds the scan.  Falls back to 1 for an object
        whose event line was also lost to the crash."""
        path = _unslug(meta_path.stem)
        version = 0
        if self._snapshot is not None:
            entry = self._snapshot.entry_for(path)
            if entry is not None and entry.kind == "put":
                version = entry.version
        for event in self._read_events():
            if event.path == path:
                version = event.version if event.kind == "put" else 0
        if version == 0:
            version = 1
        self._write_atomic(
            meta_path, json.dumps({"version": version}).encode("utf-8"))
        self._meta_rebuilds.add()
        return version

    def _last_sequence(self) -> int:
        return self._last_seq

    def _note_mutation(self, count: int = 1) -> None:
        """Advance the auto-compaction policy by ``count`` committed
        mutations, compacting when the interval elapses."""
        if self._compact_every is None:
            return
        self._mutations_since_compact += count
        if self._mutations_since_compact >= self._compact_every:
            self._mutations_since_compact = 0
            self.compact()

    def _read_events(self) -> List[DirectoryEvent]:
        lines = self._events_path.read_text("utf-8").splitlines()
        events = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                events.append(DirectoryEvent(
                    sequence=int(record["seq"]), path=record["path"],
                    kind=record["kind"], version=int(record["version"]),
                ))
            except (ValueError, KeyError) as exc:
                if index == len(lines) - 1:
                    # Torn tail from a crash mid-append; the journal
                    # roll-forward rewrites this line.
                    continue
                raise StorageError("corrupt event log") from exc
        return events

    def _account(self, bytes_in: int = 0, bytes_out: int = 0) -> float:
        latency_ms = self._latency.sample(bytes_in + bytes_out)
        self.metrics.requests += 1
        self.metrics.bytes_in += bytes_in
        self.metrics.bytes_out += bytes_out
        self.metrics.simulated_latency_ms += latency_ms
        return latency_ms
