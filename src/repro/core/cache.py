"""Local in-memory caches (paper §V-A).

Both roles cache metadata to avoid cloud round trips: administrators keep
the authoritative partition state of every group they manage ("they can
locally cache it and thus bypass the cost of accessing the cloud",
§IV-C); clients keep their own partition record and derived group key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.metadata import PartitionRecord
from repro.core.partitions import PartitionTable
from repro.obs.metrics import MetricRegistry


@dataclass
class AdminGroupState:
    """Administrator-side authoritative state of one group."""

    group_id: str
    table: PartitionTable
    records: Dict[int, PartitionRecord] = field(default_factory=dict)
    sealed_group_key: bytes = b""
    epoch: int = 0
    #: Cloud version of the group descriptor — the optimistic-concurrency
    #: token for multi-administrator deployments (conditional puts).
    descriptor_version: int = 0
    #: Store sequence this state is current through — the cursor
    #: :meth:`~repro.core.admin.GroupAdministrator.sync_group` polls
    #: from, making a refresh O(changes) instead of a full reload.
    sync_cursor: int = 0

    def crypto_footprint(self) -> int:
        """Cryptographic metadata bytes across partitions (Fig. 7 metric)."""
        return sum(r.crypto_bytes() for r in self.records.values())


class AdminCache:
    """All groups managed by one administrator.

    Hit/miss accounting lands in the supplied ``repro.obs`` registry
    (``admin.cache_hits`` / ``admin.cache_misses``) so cache
    effectiveness shows up next to the other ``admin.*`` metrics; a
    private registry is created when none is shared.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self._groups: Dict[str, AdminGroupState] = {}
        self.registry = registry if registry is not None else MetricRegistry()
        self._hits = self.registry.counter("admin.cache_hits")
        self._misses = self.registry.counter("admin.cache_misses")
        self.registry.gauge("admin.cached_groups", lambda: len(self._groups))

    def put(self, state: AdminGroupState) -> None:
        self._groups[state.group_id] = state

    def get(self, group_id: str) -> Optional[AdminGroupState]:
        state = self._groups.get(group_id)
        if state is None:
            self._misses.add()
        else:
            self._hits.add()
        return state

    def drop(self, group_id: str) -> None:
        self._groups.pop(group_id, None)

    def __contains__(self, group_id: str) -> bool:
        return group_id in self._groups


@dataclass
class ClientGroupState:
    """Client-side cached view of the user's own partition."""

    group_id: str
    partition_id: Optional[int] = None
    record: Optional[PartitionRecord] = None
    #: The record as received from the cloud (signed payload) — kept so
    #: the resume file can persist a blob the next process can
    #: re-*verify*, since the decoded record no longer carries its
    #: signature.
    record_signed: Optional[bytes] = None
    record_version: int = 0
    group_key: Optional[bytes] = None
    poll_cursor: int = 0
