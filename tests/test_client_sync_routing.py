"""The client's one sync path: routed through the signed descriptor.

A member fetches and verifies the descriptor plus *its own* partition
record, never a foreign one.  Each adversary case below ends one of two
ways — the manipulation is detected, or the manipulated object is never
read — and in both the store's content digest is what the adversary left
(a reader writes nothing).
"""

import pytest

from repro.core.metadata import descriptor_path, partition_path
from repro.crypto.ecdsa import EcdsaPublicKey
from repro.errors import (
    AccessControlError,
    AuthenticationError,
    RevokedError,
    StaleMetadataError,
)
from repro.workloads.chaos import cloud_digest
from tests.conftest import make_system

MEMBERS = [f"user{i}" for i in range(8)]      # capacity 4: p0 and p1
OWN, FOREIGN = partition_path("g", 0), partition_path("g", 1)
DESCRIPTOR = descriptor_path("g")


@pytest.fixture()
def world():
    system = make_system("sync-routing", capacity=4)
    system.admin.create_group("g", MEMBERS)
    client = system.make_client("g", "user0")
    assert client.sync()
    return system, client


@pytest.fixture()
def verifies(monkeypatch):
    """Signed byte strings handed to ``EcdsaPublicKey.verify``."""
    seen = []
    real = EcdsaPublicKey.verify

    def counting(self, message, signature):
        seen.append(message)
        return real(self, message, signature)

    monkeypatch.setattr(EcdsaPublicKey, "verify", counting)
    return seen


def flip(data: bytes) -> bytes:
    return data[:20] + bytes([data[20] ^ 1]) + data[21:]


def synced(system, client, verifies):
    """Run one sync; return (changed, verify calls, bytes read, requests)
    and check the reader left the store as it found it."""
    metrics = system.cloud.metrics
    calls, out, requests = len(verifies), metrics.bytes_out, metrics.requests
    digest = cloud_digest(system.cloud)
    changed = client.sync()
    assert cloud_digest(system.cloud) == digest
    return (changed, len(verifies) - calls, metrics.bytes_out - out,
            metrics.requests - requests)


class TestWhatASyncReads:
    def test_rekey_reads_descriptor_and_own_record(self, world, verifies):
        system, client = world
        system.admin.rekey("g")
        changed, calls, read, requests = synced(system, client, verifies)
        assert changed and calls == 2
        assert read == sum(len(system.cloud.get(path).data)
                           for path in (DESCRIPTOR, OWN))
        assert requests == 2                    # poll + one get_many

    def test_change_elsewhere_reads_the_descriptor_only(self, world,
                                                        verifies):
        system, client = world
        key = client.current_group_key()
        system.admin.add_user("g", "newcomer")  # lands in a new partition
        changed, calls, read, _ = synced(system, client, verifies)
        assert not changed and calls == 1
        assert read == len(system.cloud.get(DESCRIPTOR).data)
        assert client.current_group_key() == key and client.decrypt_count == 1

    def test_quiet_poll_reads_nothing(self, world, verifies):
        system, client = world
        assert synced(system, client, verifies) == (False, 0, 0, 1)

    def test_cold_sync_cost_is_independent_of_history(self, world, verifies):
        system, watcher = world
        for _ in range(6):
            system.admin.rekey("g")
        cold = system.make_client("g", "user5")
        changed, calls, read, requests = synced(system, cold, verifies)
        assert changed and calls == 2
        assert read == sum(len(system.cloud.get(path).data)
                           for path in (DESCRIPTOR, FOREIGN))
        assert requests == 3                    # poll, get_many, one get
        watcher.sync()
        assert cold.current_group_key() == watcher.current_group_key()

    def test_moved_member_follows_with_one_extra_get(self, world, verifies):
        system, _ = world
        mover = system.make_client("g", "user2")
        mover.sync()
        assert mover.state.partition_id == 0
        system.admin.repartition("g", new_capacity=2)
        changed, calls, _, requests = synced(system, mover, verifies)
        assert changed and calls == 2 and requests == 3
        assert mover.state.partition_id == 1
        assert mover.state.record.members == ("user2", "user3")


class TestAdversarialStore:
    def test_tampered_foreign_record_is_never_read(self, world, verifies):
        """Harmless because unfetched, not because checked: the member
        asks for the descriptor and its own path, and nothing else of
        the group can reach it."""
        system, client = world
        system.admin.rekey("g")
        system.cloud.put(FOREIGN, flip(system.cloud.get(FOREIGN).data))
        tampered = system.cloud.get(FOREIGN).data
        changed, calls, _, _ = synced(system, client, verifies)
        assert changed and calls == 2
        assert all(message not in tampered for message in verifies)
        assert len(client.current_group_key()) == 32
        # ... while a member of that partition does detect it.
        with pytest.raises(AuthenticationError):
            system.make_client("g", "user5").sync()

    @pytest.mark.parametrize("path", [OWN, DESCRIPTOR])
    def test_tampered_own_record_or_descriptor_detected(self, world, path):
        system, client = world
        system.admin.rekey("g")
        system.cloud.put(path, flip(system.cloud.get(path).data))
        digest = cloud_digest(system.cloud)
        with pytest.raises(AuthenticationError):
            client.sync()
        assert cloud_digest(system.cloud) == digest

    def test_replayed_descriptor_detected(self, world):
        system, client = world
        old = system.cloud.get(DESCRIPTOR).data
        system.admin.remove_user("g", "user5")
        client.sync()
        system.cloud.put(DESCRIPTOR, old)
        with pytest.raises(StaleMetadataError):
            client.sync()

    def test_descriptor_of_another_group_detected(self, world):
        system, client = world
        system.admin.create_group("h", MEMBERS)
        system.cloud.put(DESCRIPTOR,
                         system.cloud.get(descriptor_path("h")).data)
        with pytest.raises(AccessControlError):
            client.sync()

    def test_record_served_at_another_path_detected(self, world):
        """A validly signed record that still lists the member — its
        partition before a re-partitioning — served where the descriptor
        now places it."""
        system, _ = world
        mover = system.make_client("g", "user2")
        mover.sync()
        stale = system.cloud.get(OWN).data          # p0 lists user0..3
        system.admin.repartition("g", new_capacity=2)
        system.cloud.put(FOREIGN, stale)            # user2 now lives in p1
        with pytest.raises(AccessControlError, match="served at /g/p1"):
            mover.sync()
        with pytest.raises(AccessControlError):
            system.make_client("g", "user3").sync()

    def test_record_behind_the_descriptor_clears_membership(self, world):
        """The descriptor lists us where the (validly signed, older)
        record does not yet: no key until a later poll resolves it."""
        system, _ = world
        joiner = system.make_client("g", "late")
        older = system.cloud.get(OWN).data
        system.admin.remove_user("g", "user1")
        system.admin.add_user("g", "late")          # fills p0's open slot
        assert system.admin.group_state("g").table.partition_of("late") == 0
        system.cloud.put(OWN, older)
        assert not joiner.sync()
        with pytest.raises(RevokedError):
            joiner.current_group_key()


class TestLeaving:
    def test_revocation_clears_membership(self, world):
        system, client = world
        client.current_group_key()
        system.admin.remove_user("g", "user0")
        assert client.sync()
        with pytest.raises(RevokedError):
            client.current_group_key()
        assert not client.sync()

    def test_group_deletion_clears_membership(self, world):
        system, client = world
        system.admin.delete_group("g")
        assert client.sync()
        assert client.state.record is None
        with pytest.raises(RevokedError):
            client.current_group_key()
