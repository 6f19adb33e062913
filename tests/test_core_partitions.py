"""Partition-table bookkeeping tests (paper §IV-C mechanics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import PartitionTable
from repro.crypto.rng import DeterministicRng
from repro.errors import MembershipError, ParameterError


class TestBuild:
    def test_exact_split(self):
        table = PartitionTable.build([f"u{i}" for i in range(6)], 3)
        assert table.partition_count == 2
        assert len(table) == 6
        assert table.members_of(0) == ["u0", "u1", "u2"]

    def test_ragged_split(self):
        table = PartitionTable.build([f"u{i}" for i in range(7)], 3)
        assert table.partition_count == 3
        assert table.members_of(2) == ["u6"]

    def test_empty(self):
        table = PartitionTable.build([], 3)
        assert table.partition_count == 0
        assert len(table) == 0

    def test_duplicates_rejected(self):
        with pytest.raises(MembershipError):
            PartitionTable.build(["a", "a"], 3)

    def test_bad_capacity(self):
        with pytest.raises(ParameterError):
            PartitionTable.build(["a"], 0)


class TestMutation:
    def test_add_to_partition(self):
        table = PartitionTable.build(["a", "b"], 3)
        table.add_to_partition(0, "c")
        assert table.partition_of("c") == 0
        with pytest.raises(MembershipError):
            table.add_to_partition(0, "d")  # now full

    def test_add_duplicate_rejected(self):
        table = PartitionTable.build(["a"], 3)
        with pytest.raises(MembershipError):
            table.add_to_partition(0, "a")
        with pytest.raises(MembershipError):
            table.add_new_partition("a")

    def test_add_new_partition(self):
        table = PartitionTable.build(["a"], 1)
        pid = table.add_new_partition("b")
        assert table.partition_of("b") == pid
        assert table.partition_count == 2

    def test_remove(self):
        table = PartitionTable.build(["a", "b", "c"], 2)
        hosting = table.remove("b")
        assert hosting == 0
        assert "b" not in table
        assert table.members_of(0) == ["a"]

    def test_remove_last_member_drops_partition(self):
        table = PartitionTable.build(["a", "b", "c"], 2)
        table.remove("c")
        assert table.partition_count == 1
        with pytest.raises(MembershipError):
            table.members_of(1)

    def test_remove_unknown(self):
        table = PartitionTable.build(["a"], 2)
        with pytest.raises(MembershipError):
            table.remove("z")


class TestQueries:
    def test_pick_open_partition(self):
        table = PartitionTable.build(["a", "b", "c"], 2)
        rng = DeterministicRng("pick")
        pid = table.pick_open_partition(rng)
        assert pid == 1  # the only one with room

    def test_pick_when_full(self):
        table = PartitionTable.build(["a", "b"], 2)
        assert table.pick_open_partition(DeterministicRng("x")) is None

    def test_all_members_order_stable(self):
        table = PartitionTable.build(["a", "b", "c"], 2)
        assert table.all_members() == ["a", "b", "c"]


class TestOccupancyHeuristic:
    def test_full_table_no_repartition(self):
        table = PartitionTable.build([f"u{i}" for i in range(9)], 3)
        assert not table.needs_repartition()

    def test_single_partition_never(self):
        table = PartitionTable.build(["a"], 3)
        assert not table.needs_repartition()

    def test_sparse_triggers(self):
        table = PartitionTable.build([f"u{i}" for i in range(9)], 3)
        # Hollow out: remove two members from each of two partitions.
        for user in ["u0", "u1", "u3", "u4"]:
            table.remove(user)
        # Now partitions: [u2], [u5], [u6,u7,u8] — 2/3 below threshold and
        # 5 members fit into 2 partitions < 3.
        assert table.needs_repartition()

    def test_sparse_but_unmergeable_does_not_trigger(self):
        table = PartitionTable.build([f"u{i}" for i in range(4)], 3)
        # [u0,u1,u2], [u3] → only one below-threshold partition out of two;
        # and 4 members still need 2 partitions.
        table.remove("u2")
        assert not table.needs_repartition()


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]),
                  st.integers(min_value=0, max_value=30)),
        max_size=40,
    ),
    capacity=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50)
def test_invariants_under_random_ops(ops, capacity):
    """user→partition map and partition contents always stay consistent."""
    table = PartitionTable(capacity=capacity)
    rng = DeterministicRng("inv")
    present = set()
    for kind, index in ops:
        user = f"u{index}"
        if kind == "add" and user not in present:
            pid = table.pick_open_partition(rng)
            if pid is None:
                table.add_new_partition(user)
            else:
                table.add_to_partition(pid, user)
            present.add(user)
        elif kind == "remove" and user in present:
            table.remove(user)
            present.discard(user)
    assert set(table.all_members()) == present
    assert len(table) == len(present)
    for pid in table.partition_ids:
        members = table.members_of(pid)
        assert 1 <= len(members) <= capacity
        for user in members:
            assert table.partition_of(user) == pid
