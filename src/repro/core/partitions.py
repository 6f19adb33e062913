"""The partitioning mechanism (paper §IV-C).

Groups are split into fixed-capacity partitions; each partition carries its
own IBBE broadcast key wrapping the shared group key, which bounds the
user-side decryption cost to the partition size instead of the group size.

:class:`PartitionTable` is pure bookkeeping (no cryptography): membership
of partitions, user→partition lookup, capacity queries, and the occupancy
heuristic that triggers re-partitioning ("if less than half of the
partitions are two-thirds full, re-partition", §V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.crypto.rng import Rng
from repro.errors import MembershipError, ParameterError


@dataclass
class PartitionTable:
    """Mutable membership state of one group."""

    capacity: int
    _partitions: Dict[int, List[str]] = field(default_factory=dict)
    _user_to_partition: Dict[str, int] = field(default_factory=dict)
    _next_id: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ParameterError("partition capacity must be >= 1")

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(cls, members: Sequence[str], capacity: int) -> "PartitionTable":
        """Split ``members`` into fixed-size partitions (Algorithm 1 line 1)."""
        table = cls(capacity=capacity)
        unique = list(dict.fromkeys(members))
        if len(unique) != len(members):
            raise MembershipError("duplicate members in group definition")
        for start in range(0, len(unique), capacity):
            table._create_partition(unique[start:start + capacity])
        return table

    def _create_partition(self, members: List[str]) -> int:
        pid = self._next_id
        self._next_id += 1
        self._partitions[pid] = list(members)
        for user in members:
            self._user_to_partition[user] = pid
        return pid

    # -- queries ------------------------------------------------------------------

    @property
    def partition_ids(self) -> List[int]:
        return sorted(self._partitions)

    @property
    def next_partition_id(self) -> int:
        """The allocation cursor: the id the next new partition will get.
        Ids are never reused (deleting the top partition does not rewind
        it), and it is persisted in the group descriptor so a state
        reload allocates exactly as the in-memory table would have."""
        return self._next_id

    def members_of(self, partition_id: int) -> List[str]:
        if partition_id not in self._partitions:
            raise MembershipError(f"unknown partition {partition_id}")
        return list(self._partitions[partition_id])

    def partition_of(self, user: str) -> int:
        pid = self._user_to_partition.get(user)
        if pid is None:
            raise MembershipError(f"user {user!r} is not a group member")
        return pid

    def __contains__(self, user: str) -> bool:
        return user in self._user_to_partition

    def __len__(self) -> int:
        return len(self._user_to_partition)

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    def all_members(self) -> List[str]:
        return [
            user
            for pid in self.partition_ids
            for user in self._partitions[pid]
        ]

    def partitions_with_capacity(self) -> List[int]:
        """P′ of Algorithm 2 line 1: partitions below capacity."""
        return [
            pid for pid in self.partition_ids
            if len(self._partitions[pid]) < self.capacity
        ]

    def pick_open_partition(self, rng: Rng) -> Optional[int]:
        """RandomItem(P′) of Algorithm 2 line 9; None when all are full."""
        open_partitions = self.partitions_with_capacity()
        if not open_partitions:
            return None
        return open_partitions[rng.randint_below(len(open_partitions))]

    # -- mutation -------------------------------------------------------------------

    def add_to_partition(self, partition_id: int, user: str) -> None:
        if user in self._user_to_partition:
            raise MembershipError(f"user {user!r} is already a member")
        members = self._partitions.get(partition_id)
        if members is None:
            raise MembershipError(f"unknown partition {partition_id}")
        if len(members) >= self.capacity:
            raise MembershipError(f"partition {partition_id} is full")
        members.append(user)
        self._user_to_partition[user] = partition_id

    def add_new_partition(self, user: str) -> int:
        if user in self._user_to_partition:
            raise MembershipError(f"user {user!r} is already a member")
        return self._create_partition([user])

    def remove(self, user: str) -> int:
        """Remove a member; returns the partition that hosted them.

        Empty partitions are dropped from the table (the administrator also
        deletes their cloud object)."""
        pid = self.partition_of(user)
        self._partitions[pid].remove(user)
        del self._user_to_partition[user]
        if not self._partitions[pid]:
            del self._partitions[pid]
        return pid

    # -- occupancy heuristic -----------------------------------------------------------

    def needs_repartition(self) -> bool:
        """Low-occupancy detector of §V-A.

        Triggers when fewer than half of the partitions are at least
        two-thirds full (and merging could actually reduce the partition
        count)."""
        if self.partition_count < 2:
            return False
        threshold = 2 * self.capacity / 3
        well_filled = sum(
            1 for members in self._partitions.values()
            if len(members) >= threshold
        )
        if well_filled >= self.partition_count / 2:
            return False
        # Only worth re-partitioning if it would shrink the table.
        minimal = -(-len(self._user_to_partition) // self.capacity)
        return minimal < self.partition_count
