"""End-to-end system tests: administrator + cloud + clients (paper §V)."""

import pytest

from repro.core.metadata import partition_path
from repro.errors import (
    AccessControlError,
    MembershipError,
    RevokedError,
)
from tests.conftest import make_system

MEMBERS = [f"user{i}" for i in range(10)]


@pytest.fixture()
def system():
    return make_system("admin-client", capacity=4)


@pytest.fixture()
def populated(system):
    system.admin.create_group("team", MEMBERS)
    return system


class TestCreateGroup:
    def test_partition_layout(self, populated):
        state = populated.admin.group_state("team")
        assert state.table.partition_count == 3  # 4+4+2
        assert len(state.records) == 3

    def test_cloud_objects_written(self, populated):
        cloud = populated.cloud
        assert cloud.exists("/team/p0")
        assert cloud.exists("/team/p2")
        assert cloud.exists("/team/descriptor")

    def test_duplicate_group_rejected(self, populated):
        with pytest.raises(AccessControlError):
            populated.admin.create_group("team", ["x"])

    def test_empty_group_rejected(self, system):
        with pytest.raises(AccessControlError):
            system.admin.create_group("empty", [])

    def test_all_members_derive_same_key(self, populated):
        keys = set()
        for user in MEMBERS:
            client = populated.make_client("team", user)
            assert client.sync()
            keys.add(client.current_group_key())
        assert len(keys) == 1


class TestAddUser:
    def test_add_to_open_partition(self, populated):
        admin = populated.admin
        before = admin.group_state("team").table.partition_count
        admin.add_user("team", "newbie")  # p2 has room
        state = admin.group_state("team")
        assert state.table.partition_count == before
        assert "newbie" in state.table

    def test_add_creates_partition_when_full(self, populated):
        admin = populated.admin
        admin.add_user("team", "fill1")
        admin.add_user("team", "fill2")  # p2 now 4/4 — all full
        before = admin.group_state("team").table.partition_count
        admin.add_user("team", "overflow")
        assert admin.group_state("team").table.partition_count == before + 1

    def test_add_does_not_rekey(self, populated):
        client = populated.make_client("team", "user0")
        client.sync()
        gk_before = client.current_group_key()
        populated.admin.add_user("team", "newbie")
        client.sync()
        assert client.current_group_key() == gk_before

    def test_new_member_can_decrypt(self, populated):
        populated.admin.add_user("team", "newbie")
        client = populated.make_client("team", "newbie")
        client.sync()
        veteran = populated.make_client("team", "user0")
        veteran.sync()
        assert client.current_group_key() == veteran.current_group_key()

    def test_double_add_rejected(self, populated):
        with pytest.raises(MembershipError):
            populated.admin.add_user("team", "user0")

    def test_unknown_group_rejected(self, system):
        with pytest.raises(AccessControlError):
            system.admin.add_user("ghost", "x")


class TestRemoveUser:
    def test_revoked_user_locked_out(self, populated):
        victim = populated.make_client("team", "user5")
        victim.sync()
        victim.current_group_key()
        populated.admin.remove_user("team", "user5")
        victim.sync()
        with pytest.raises(RevokedError):
            victim.current_group_key()

    def test_remaining_members_rekeyed(self, populated):
        a = populated.make_client("team", "user0")
        b = populated.make_client("team", "user9")  # different partition
        a.sync(); b.sync()
        gk_before = a.current_group_key()
        populated.admin.remove_user("team", "user5")
        a.sync(); b.sync()
        gk_after = a.current_group_key()
        assert gk_after != gk_before
        assert b.current_group_key() == gk_after

    def test_remove_unknown_rejected(self, populated):
        with pytest.raises(MembershipError):
            populated.admin.remove_user("team", "stranger")

    def test_remove_last_member_clears_group(self):
        system = make_system("tiny", capacity=4)
        system.admin.create_group("solo", ["only"])
        system.admin.remove_user("solo", "only")
        state = system.admin.group_state("solo")
        assert len(state.table) == 0
        assert not system.cloud.exists(partition_path("solo", 0))

    def test_empty_partition_deleted_and_rest_rekeyed(self):
        system = make_system("empties", capacity=2, auto_repartition=False)
        system.admin.create_group("g", ["a", "b", "c"])  # [a,b], [c]
        survivor = system.make_client("g", "a")
        survivor.sync()
        gk_before = survivor.current_group_key()
        system.admin.remove_user("g", "c")  # hosting partition empties
        assert not system.cloud.exists(partition_path("g", 1))
        survivor.sync()
        assert survivor.current_group_key() != gk_before


class TestRepartition:
    def test_triggered_by_mass_removal(self):
        system = make_system("repart", capacity=4)
        system.admin.create_group("g", [f"u{i}" for i in range(12)])
        for user in ["u0", "u1", "u2", "u4", "u5", "u6"]:
            system.admin.remove_user("g", user)
        assert system.admin.metrics.repartitions >= 1
        state = system.admin.group_state("g")
        # 6 remaining members fit 2 partitions of 4.
        assert state.table.partition_count == 2

    def test_members_survive_repartition(self):
        system = make_system("repart2", capacity=4)
        system.admin.create_group("g", [f"u{i}" for i in range(12)])
        client = system.make_client("g", "u3")
        client.sync()
        for user in ["u0", "u1", "u2", "u4", "u5", "u6"]:
            system.admin.remove_user("g", user)
        client.sync()
        fresh = system.make_client("g", "u11")
        fresh.sync()
        assert client.current_group_key() == fresh.current_group_key()

    def test_manual_repartition_with_new_capacity(self):
        system = make_system("resize", capacity=2)
        system.admin.create_group("g", [f"u{i}" for i in range(8)])
        assert system.admin.group_state("g").table.partition_count == 4
        system.admin.repartition("g", new_capacity=4)
        state = system.admin.group_state("g")
        assert state.table.capacity == 4
        assert state.table.partition_count == 2
        client = system.make_client("g", "u0")
        client.sync()
        client.current_group_key()


class TestRekey:
    def test_rekey_rotates_for_all(self, populated):
        a = populated.make_client("team", "user0")
        a.sync()
        gk_before = a.current_group_key()
        populated.admin.rekey("team")
        a.sync()
        assert a.current_group_key() != gk_before


class TestClientSync:
    def test_sync_idempotent_when_quiet(self, populated):
        client = populated.make_client("team", "user0")
        assert client.sync()
        assert not client.sync()

    def test_client_rejects_forged_records(self, populated):
        """A curious cloud cannot substitute its own partition record."""
        from repro.core.metadata import PartitionRecord
        from repro.crypto import ecdsa as ecdsa_mod
        from repro.crypto.rng import DeterministicRng
        state = populated.admin.group_state("team")
        record = state.records[0]
        mallory_key = ecdsa_mod.generate_keypair(DeterministicRng("mallory"))
        forged = PartitionRecord(
            group_id="team", partition_id=0,
            members=record.members + ("mallory",),
            ciphertext=record.ciphertext, envelope=record.envelope,
        ).signed(mallory_key)
        populated.cloud.put("/team/p0", forged)
        client = populated.make_client("team", "user0")
        from repro.errors import AuthenticationError
        with pytest.raises(AuthenticationError):
            client.sync()

    def test_group_key_cached_until_change(self, populated):
        client = populated.make_client("team", "user0")
        client.sync()
        client.current_group_key()
        assert client.decrypt_count == 1
        client.current_group_key()
        assert client.decrypt_count == 1  # cache hit
        populated.admin.rekey("team")
        client.sync()
        client.current_group_key()
        assert client.decrypt_count == 2

    def test_never_added_user_has_no_key(self, populated):
        outsider = populated.make_client("team", "outsider")
        outsider.sync()
        with pytest.raises(RevokedError):
            outsider.current_group_key()


class TestMetrics:
    def test_counters(self, populated):
        admin = populated.admin
        admin.add_user("team", "x1")
        admin.remove_user("team", "x1")
        snap = admin.metrics.registry.snapshot()
        assert snap["admin.groups_created"] == 1
        assert snap["admin.users_added"] == 1
        assert snap["admin.users_removed"] == 1
        assert snap["admin.bytes_pushed"] > 0

    def test_footprints(self, populated):
        state = populated.admin.group_state("team")
        assert 0 < state.crypto_footprint() < sum(
            len(record.payload()) for record in state.records.values())
