"""File-backed cloud store.

Persists the :class:`~repro.cloud.store.CloudStore` contract to a local
directory so separate processes (an administrator CLI invocation, client
daemons) share one storage substrate:

* each object lives at ``objects/<urlsafe path>`` with a sidecar version;
* the event log (long-polling source) is an append-only JSONL file;
* metrics are process-local (not persisted).

What a commit, a poll and a compaction *mean* is written once, in
:class:`~repro.cloud.store.CloudStore`; :class:`FileCloudStore` inherits
every contract method and implements only the six storage hooks over
the directory (``_lookup`` / ``_version_of`` read the data and ``.meta``
files, ``_live_paths`` lists ``objects/``, ``_log`` reads
``events.jsonl``, ``_write`` is the commit journal below and ``_fold``
the compaction journal), plus the durability code this module alone
needs.

Concurrency model: single-writer-at-a-time per object (the paper's single
administrator; the multi-admin extension layers optimistic concurrency on
top via conditional puts, which this store honours).  Several live
handles may share one directory: a handle caches the snapshot manifest
and the log head, and re-reads both whenever ``events.jsonl`` or
``snapshot.json`` no longer has the inode, size and modification time it
last wrote or read, so it adopts other handles' commits and compactions
before it polls, writes or reports a sequence number.

Crash consistency: every mutation — a commit, of one op or many — is
first recorded in a ``commit.journal`` written with temp-file +
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
journal file: a compaction folds ``events.jsonl`` into ``snapshot.json``
(the serialized :class:`~repro.cloud.store.StoreSnapshot` manifest) by
writing the folded manifest to ``compact.journal`` first, then
atomically replacing ``snapshot.json``, then rewriting the event file
with only the suffix past the snapshot horizon, then unlinking the
journal.  Every step is idempotent, so a crash anywhere rolls the
compaction *forward* on the next open — the store never has to undo a
half-written snapshot, and mutations are strictly serialized with
compactions so at most one journal kind exists at any crash.
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
    CloudObject,
    CloudStore,
    DirectoryEvent,
    SnapshotEntry,
    StagedWrite,
    StoreSnapshot,
)
from repro.errors import StorageError
from repro.faulthook import crash_point


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


class FileCloudStore(CloudStore):
    """Drop-in replacement for :class:`CloudStore` backed by a directory."""

    def __init__(self, root: str | Path,
                 latency: Optional[LatencyModel] = None,
                 compact_every: Optional[int] = None) -> None:
        super().__init__(latency, compact_every)
        self.root = Path(root)
        self._objects_dir = self.root / "objects"
        self._events_path = self.root / "events.jsonl"
        self._journal_path = self.root / "commit.journal"
        self._snapshot_path = self.root / "snapshot.json"
        self._compact_journal_path = self.root / "compact.journal"
        self._objects_dir.mkdir(parents=True, exist_ok=True)
        if not self._events_path.exists():
            self._events_path.write_text("", encoding="utf-8")
        self._recoveries = self.metrics.registry.counter("cloud.recoveries")
        self._meta_rebuilds = self.metrics.registry.counter(
            "cloud.meta_rebuilds")
        self._recover()
        # Cached so mutations stop paying an O(history) scan per call;
        # _adopt refreshes both when another handle moved the files.
        self._last_seq = 0
        self._stamp: Optional[Tuple] = None
        self._adopt()

    # The shared bodies, bound in this class's own namespace:
    # ``benchmarks/ledger`` times the file store's calls by wrapping
    # these attributes, apart from the in-memory store's.
    get = CloudStore.get
    put = CloudStoreProtocol.put
    get_many = CloudStore.get_many
    commit = CloudStore.commit
    poll_dir = CloudStore.poll_dir
    compact = CloudStore.compact

    def snapshot_horizon(self) -> int:
        self._adopt()
        return super().snapshot_horizon()

    def head_sequence(self) -> int:
        self._adopt()
        return self._last_seq

    # -- storage hooks -------------------------------------------------------------

    def _lookup(self, path: str) -> Optional[CloudObject]:
        object_path = self._objects_dir / _slug(path)
        if not object_path.exists():
            return None
        data = object_path.read_bytes()
        return CloudObject(
            path=path, data=data,
            version=self._read_version(object_path.with_suffix(".meta")))

    def _version_of(self, path: str) -> int:
        object_path = self._objects_dir / _slug(path)
        if not object_path.exists():
            return 0
        return self._read_version(object_path.with_suffix(".meta"))

    def _live_paths(self) -> List[str]:
        # Sorted: the order of a directory listing is arbitrary.
        return [_unslug(entry.name)
                for entry in sorted(self._objects_dir.iterdir())
                if entry.suffix not in (".meta", ".tmp")]

    def _log(self) -> List[DirectoryEvent]:
        self._adopt()
        return self._read_events()

    def _write(self, staged: Sequence[StagedWrite]) -> None:
        """Apply a validated write set under the journal protocol (see
        the module docstring).  Versions and sequence numbers are
        absolute, making roll-forward idempotent."""
        self._adopt()
        sequence = self._last_seq
        records = []
        events = []
        for kind, path, data, version in staged:
            record = {"kind": kind, "path": path, "version": version}
            if kind == "put":
                record["data"] = base64.b64encode(data).decode("ascii")
            records.append(record)
            sequence += 1
            events.append({"seq": sequence, "path": path,
                           "kind": kind, "version": version})
        journal = {"ops": records, "events": events}
        self._write_atomic(self._journal_path,
                           json.dumps(journal).encode("utf-8"))
        crash_point("cloud.commit.journaled")
        self._apply_records(records, inject=True)
        self._append_event_lines(events)
        self._journal_path.unlink()
        self._last_seq = sequence
        self._stamp = self._file_stamp()

    def _fold(self, snapshot: StoreSnapshot) -> None:
        payload = _encode_snapshot(snapshot)
        self._write_atomic(self._compact_journal_path, payload)
        crash_point("cloud.compact.journaled")
        self._apply_compaction(payload, inject=True)
        self._compact_journal_path.unlink()
        self._last_seq = max(self._last_seq, snapshot.horizon)
        self._stamp = self._file_stamp()

    # -- other handles ---------------------------------------------------------------

    def _file_stamp(self) -> Tuple:
        stamp = []
        for path in (self._events_path, self._snapshot_path):
            try:
                info = path.stat()
            except FileNotFoundError:
                stamp.append(None)
            else:
                stamp.append((info.st_ino, info.st_size, info.st_mtime_ns))
        return tuple(stamp)

    def _adopt(self) -> None:
        """Re-read the snapshot manifest and the log head if another
        handle has committed or compacted since this one last wrote or
        read them."""
        stamp = self._file_stamp()
        if stamp == self._stamp:
            return
        self._snapshot = self._load_snapshot()
        self._last_seq = max(
            self._snapshot.horizon if self._snapshot is not None else 0,
            self._log_head())
        self._stamp = stamp

    def _log_head(self) -> int:
        """The sequence of the last event line that parses, 0 for an
        empty log.  Lines are appended in sequence order, so only the
        tail is parsed; a torn tail is skipped as :meth:`_read_events`
        skips it."""
        lines = self._events_path.read_text("utf-8").splitlines()
        for index in range(len(lines) - 1, -1, -1):
            if not lines[index].strip():
                continue
            try:
                return int(json.loads(lines[index])["seq"])
            except (ValueError, KeyError) as exc:
                if index < len(lines) - 1:
                    raise StorageError("corrupt event log") from exc
        return 0

    # -- durability ------------------------------------------------------------------

    def _apply_compaction(self, payload: bytes, inject: bool) -> None:
        """Execute (or re-execute, during recovery) a journalled
        compaction: install the snapshot manifest, then drop every event
        line at or below its horizon.  Both steps replace whole files
        atomically and converge to the same state when repeated."""
        self._write_atomic(self._snapshot_path, payload)
        if inject:
            crash_point("cloud.compact.snapshot_written")
        horizon = json.loads(payload.decode("utf-8"))["horizon"]
        self._rewrite_events(
            e for e in self._read_events() if e.sequence > horizon)

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

    @staticmethod
    def _write_atomic(target: Path, data: bytes) -> None:
        """Temp-file + ``os.replace``: the target is always either the
        old bytes or the new bytes, never a torn mix."""
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, target)

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

    def _rewrite_events(self, events: Iterable[DirectoryEvent]) -> None:
        lines = "".join(
            json.dumps({"seq": e.sequence, "path": e.path,
                        "kind": e.kind, "version": e.version}) + "\n"
            for e in events
        )
        self._write_atomic(self._events_path, lines.encode("utf-8"))

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
            self._rewrite_events(
                e for e in self._read_events() if e.sequence < first_seq)
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
