"""The formal ``CloudStore`` contract.

Every storage backend in the reproduction — the in-memory
:class:`~repro.cloud.CloudStore`, the file-backed
:class:`~repro.cloud.FileCloudStore`, the fault-injecting
:class:`~repro.faults.FaultyCloudStore` decorator, and the network
:class:`~repro.net.RemoteCloudStore` — implements this ABC instead of
relying on duck typing.  ``tests/test_store_contract.py`` runs one shared
conformance suite over all of them, and the wire schema in
:mod:`repro.net.wire` maps the contract one method per RPC, so "what a
store is" is checked in exactly one place.

**Every write is a commit.**  :meth:`CloudStoreProtocol.commit` of a
:class:`CloudBatch` is the one mutation a store implements; it validates,
charges, journals and serves a write set as one request.  :meth:`put` is
a one-op commit written once, here, so a single put is guarded, counted
and crash-consistent exactly as any batch is.  A delete is
``commit(CloudBatch().delete(path))``, and whether a path is live is
``path in get_many([path])``.

The contract names only what something calls, in two method classes:

* **round trips** (:data:`ROUND_TRIP_METHODS`) — operations a remote
  store pays a network request for, and therefore the operations the
  fault layer injects outages/timeouts into and the metrics layer counts
  as requests;
* **inspection** (:data:`INSPECTION_METHODS`) — local accessors
  (`snapshot_horizon`, `head_sequence`) and the test-only
  `adversary_view` that are *not* charged as round trips by the
  in-process stores.  The remote store necessarily pays a request for
  them too, but fault decorators leave them unguarded so chaos schedules
  stay aligned with the in-process runs.

``ROUND_TRIP_METHODS`` maps each method name to the index of its path
(or directory) argument, ``None`` when the operation has no single path
— this is what lets :class:`~repro.faults.FaultyCloudStore` *generate*
its guarded delegations from the ABC instead of hand-writing
pass-throughs that silently rot when the contract grows.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Round-trip method name -> index of the positional path/directory
#: argument consulted by fault injection (``None``: no single path).
ROUND_TRIP_METHODS: Dict[str, Optional[int]] = {
    "get": 0,
    "get_many": None,
    "commit": None,
    "list_dir": 0,
    "poll_dir": 0,
    "compact": None,
}

#: Local accessors and test-only interfaces; never guarded, never charged
#: as requests by in-process stores.
INSPECTION_METHODS: Tuple[str, ...] = (
    "snapshot_horizon",
    "head_sequence",
    "adversary_view",
)


@dataclass(frozen=True)
class BatchPut:
    """One put inside a :class:`CloudBatch` (conditional iff
    ``expected_version`` is set)."""

    path: str
    data: bytes
    expected_version: Optional[int] = None


@dataclass(frozen=True)
class BatchDelete:
    """One delete inside a :class:`CloudBatch`.

    ``ignore_missing`` makes the delete a no-op when the object is absent
    (garbage that another admin may already have collected).
    """

    path: str
    ignore_missing: bool = False


BatchOp = Union[BatchPut, BatchDelete]


@dataclass
class CloudBatch:
    """An ordered multi-object write, committed atomically in one request.

    Build with :meth:`put` / :meth:`delete` (chainable) or pass operations
    directly.  Operation order matters: events are emitted in it, and a
    put after a delete of the same path restarts the version at 1, exactly
    as sequential commits would.
    """

    ops: List[BatchOp] = field(default_factory=list)

    def put(self, path: str, data: bytes,
            expected_version: Optional[int] = None) -> "CloudBatch":
        self.ops.append(BatchPut(path, data, expected_version))
        return self

    def delete(self, path: str, ignore_missing: bool = False) -> "CloudBatch":
        self.ops.append(BatchDelete(path, ignore_missing))
        return self

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    @property
    def payload_bytes(self) -> int:
        return sum(len(op.data) for op in self.ops if isinstance(op, BatchPut))


class CloudStoreProtocol(abc.ABC):
    """Versioned object store + directory broadcast channel (paper §V-A).

    Path convention: object paths look like ``/<group>/<name>``; they are
    normalized (leading slash, no ``//`` or ``..``) by implementations,
    which raise :class:`~repro.errors.StorageError` on invalid input.
    Every mutation appends a :class:`~repro.cloud.DirectoryEvent` with a
    monotonically increasing ``sequence``, which is what ``poll_dir``
    cursors index.
    """

    # -- round trips --------------------------------------------------------

    @abc.abstractmethod
    def get(self, path: str) -> Any:
        """Fetch one :class:`~repro.cloud.CloudObject`;
        :class:`~repro.errors.NotFoundError` if absent."""

    @abc.abstractmethod
    def get_many(self, paths: Iterable[str]) -> Dict[str, Any]:
        """Fetch several objects in one round trip; missing paths are
        silently skipped.  Returns ``{normalized path: CloudObject}``."""

    @abc.abstractmethod
    def commit(self, batch: CloudBatch) -> Dict[str, int]:
        """Apply a :class:`CloudBatch` atomically as ONE request: all
        operations validate against the projected state before anything
        mutates — a failed conditional put raises
        :class:`~repro.errors.ConflictError`, a delete of a missing
        object (without ``ignore_missing``)
        :class:`~repro.errors.NotFoundError`.  Returns ``{normalized
        path: new version}`` for the puts."""

    @abc.abstractmethod
    def list_dir(self, directory: str) -> List[str]:
        """Immediate children (paths) under a directory."""

    @abc.abstractmethod
    def poll_dir(self, directory: str, after_sequence: int = 0,
                 ) -> Tuple[List[Any], int]:
        """One long-poll round: ordered
        :class:`~repro.cloud.DirectoryEvent` records under ``directory``
        past the cursor, plus the new cursor.  In-process stores return
        immediately; a network store may block server-side until events
        arrive."""

    @abc.abstractmethod
    def compact(self) -> int:
        """Fold the event log into the store snapshot and truncate it;
        returns the number of event records truncated (idempotent: 0 on
        an empty log)."""

    def put(self, path: str, data: bytes,
            expected_version: Optional[int] = None) -> int:
        """Store one object, returning its new version (1 for a fresh
        path): a one-op :meth:`commit`.  With ``expected_version`` the
        put is conditional and raises
        :class:`~repro.errors.ConflictError` on a version mismatch (0 =
        "must not exist")."""
        (version,) = self.commit(
            CloudBatch().put(path, data, expected_version)).values()
        return version

    # -- inspection ---------------------------------------------------------

    @abc.abstractmethod
    def snapshot_horizon(self) -> int:
        """Highest sequence folded into the snapshot (0 = never
        compacted)."""

    @abc.abstractmethod
    def head_sequence(self) -> int:
        """Sequence number of the newest committed mutation."""

    @abc.abstractmethod
    def adversary_view(self) -> Iterator[Any]:
        """Everything the honest-but-curious provider can inspect (used
        by the security tests and the chaos digests)."""


def contract_methods() -> Tuple[str, ...]:
    """Every abstract method of the contract, round trips first — the
    single source the conformance suite and generated decorators
    iterate."""
    return tuple(ROUND_TRIP_METHODS) + INSPECTION_METHODS
