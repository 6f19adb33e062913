"""Batch admin operations and group deletion."""

import pytest

from repro.core.metadata import descriptor_path, sealed_key_path
from repro.errors import AccessControlError, MembershipError
from tests.conftest import make_system


@pytest.fixture()
def system():
    system = make_system("batch", capacity=3)
    system.admin.create_group("g", ["a", "b"])
    return system


class TestBatchAdd:
    def test_batch_members_join(self, system):
        system.admin.add_users("g", [f"n{i}" for i in range(7)])
        members = set(system.admin.members("g"))
        assert members == {"a", "b"} | {f"n{i}" for i in range(7)}

    def test_batch_is_one_epoch(self, system):
        epoch_before = system.admin.group_state("g").epoch
        system.admin.add_users("g", ["x", "y", "z"])
        assert system.admin.group_state("g").epoch == epoch_before + 1

    def test_batch_clients_can_decrypt(self, system):
        system.admin.add_users("g", [f"n{i}" for i in range(5)])
        veteran = system.make_client("g", "a")
        rookie = system.make_client("g", "n4")
        veteran.sync()
        rookie.sync()
        assert veteran.current_group_key() == rookie.current_group_key()

    def test_batch_does_not_rekey(self, system):
        client = system.make_client("g", "a")
        client.sync()
        gk = client.current_group_key()
        system.admin.add_users("g", ["x", "y"])
        client.sync()
        assert client.current_group_key() == gk

    def test_empty_batch_is_a_no_op(self, system):
        state = system.admin.group_state("g")
        before = (state.epoch, state.descriptor_version,
                  system.enclave.meter.crossings,
                  system.cloud.metrics.batch_commits)
        system.admin.add_users("g", [])
        state = system.admin.group_state("g")
        assert (state.epoch, state.descriptor_version,
                system.enclave.meter.crossings,
                system.cloud.metrics.batch_commits) == before

    def test_duplicate_in_batch_rejected(self, system):
        with pytest.raises(MembershipError):
            system.admin.add_users("g", ["x", "x"])
        with pytest.raises(MembershipError):
            system.admin.add_users("g", ["a"])
        # Failed validation must not have mutated anything.
        assert set(system.admin.members("g")) == {"a", "b"}

    def test_batch_fills_then_spills(self, system):
        """With capacity 3 and 2 seats taken, a batch of 5 must fill the
        open partition and create new ones."""
        system.admin.add_users("g", [f"n{i}" for i in range(5)])
        state = system.admin.group_state("g")
        assert state.table.partition_count >= 3
        for pid in state.table.partition_ids:
            assert 1 <= len(state.table.members_of(pid)) <= 3

    def test_fewer_pushes_than_single_adds(self):
        batched = make_system("batch-metrics-a", capacity=4)
        batched.admin.create_group("g", ["a"])
        batched.admin.add_users("g", [f"n{i}" for i in range(8)])

        single = make_system("batch-metrics-b", capacity=4)
        single.admin.create_group("g", ["a"])
        for i in range(8):
            single.admin.add_user("g", f"n{i}")

        assert (batched.cloud.metrics.requests
                < single.cloud.metrics.requests)


class TestDeleteGroup:
    def test_delete_removes_all_objects(self, system):
        system.admin.delete_group("g")
        assert system.cloud.get_many(
            ["/g/p0", descriptor_path("g"), sealed_key_path("g")]) == {}
        with pytest.raises(AccessControlError):
            system.admin.group_state("g")

    def test_clients_lose_access(self, system):
        client = system.make_client("g", "a")
        client.sync()
        client.current_group_key()
        system.admin.delete_group("g")
        client.sync()
        from repro.errors import RevokedError
        with pytest.raises(RevokedError):
            client.current_group_key()

    def test_group_id_reusable_after_delete(self, system):
        system.admin.delete_group("g")
        system.admin.create_group("g", ["fresh"])
        assert system.admin.members("g") == ["fresh"]
