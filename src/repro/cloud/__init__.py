"""Honest-but-curious cloud storage substrate (the paper's Dropbox role).

The cloud stores group metadata under the bi-level hierarchy
``/<group>/p<k>`` and doubles as the broadcast channel for membership
changes: administrators commit partition objects, clients long-poll the
group directory (Dropbox long polling works at directory level, paper
§V-A).
"""

from repro.cloud.filestore import FileCloudStore
from repro.cloud.latency import LatencyModel
from repro.cloud.protocol import (
    INSPECTION_METHODS,
    ROUND_TRIP_METHODS,
    BatchDelete,
    BatchPut,
    CloudBatch,
    CloudStoreProtocol,
)
from repro.cloud.store import (
    CloudObject,
    CloudStore,
    DirectoryEvent,
    SnapshotEntry,
    StoreSnapshot,
)

__all__ = [
    "CloudStoreProtocol",
    "ROUND_TRIP_METHODS",
    "INSPECTION_METHODS",
    "CloudStore",
    "FileCloudStore",
    "CloudObject",
    "DirectoryEvent",
    "SnapshotEntry",
    "StoreSnapshot",
    "LatencyModel",
    "CloudBatch",
    "BatchPut",
    "BatchDelete",
]
