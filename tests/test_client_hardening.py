"""Client-side hardening tests: decrypt-hint caching and freshness."""

import pytest

from repro import ibbe
from repro.core.metadata import (
    PartitionRecord,
    descriptor_path,
    partition_path,
)
from repro.errors import PairingError, RevokedError, StaleMetadataError
from tests.conftest import make_system
from tests.pairing_oracle import off_subgroup_point

MEMBERS = [f"user{i}" for i in range(8)]


@pytest.fixture()
def world():
    system = make_system("hardening", capacity=4)
    system.admin.create_group("g", MEMBERS)
    client = system.make_client("g", "user0")
    client.sync()
    return system, client


class TestDecryptHintCache:
    def test_rekeys_do_not_recompute_expansion(self, world):
        system, client = world
        client.current_group_key()
        assert client.expansion_count == 1
        for _ in range(3):
            system.admin.rekey("g")
            client.sync()
            client.current_group_key()
        assert client.decrypt_count == 4
        # The member set never changed: one expansion total.
        assert client.expansion_count == 1

    def test_membership_change_invalidates(self, world):
        system, client = world
        client.current_group_key()
        system.admin.remove_user("g", "user1")  # same partition as user0
        client.sync()
        client.current_group_key()
        assert client.expansion_count == 2

    def test_change_in_other_partition_reuses_hint(self, world):
        system, client = world
        client.current_group_key()
        # user5 lives in the second partition; user0's set is unchanged.
        system.admin.remove_user("g", "user5")
        client.sync()
        client.current_group_key()
        assert client.expansion_count == 1

    def test_hint_results_match_plain_decrypt(self, world, group):
        system, client = world
        record = client.state.record
        ciphertext = ibbe.IbbeCiphertext.decode(group, record.ciphertext)
        usk = system.user_key("user0")
        plain = ibbe.decrypt(system.public_key, usk,
                             list(record.members), ciphertext)
        hint = ibbe.prepare_decryption(system.public_key, usk,
                                       list(record.members))
        assert ibbe.decrypt_with_hint(system.public_key, usk, hint,
                                      ciphertext) == plain

    def test_hint_for_wrong_user_rejected(self, world):
        system, _ = world
        from repro.errors import SchemeError
        hint = ibbe.prepare_decryption(
            system.public_key, system.user_key("user0"), MEMBERS[:4]
        )
        record = system.admin.group_state("g").records[0]
        ciphertext = ibbe.IbbeCiphertext.decode(
            system.public_key.group, record.ciphertext
        )
        with pytest.raises(SchemeError):
            ibbe.decrypt_with_hint(system.public_key,
                                   system.user_key("user1"), hint,
                                   ciphertext)

    def test_cache_window_bounded(self, world):
        system, client = world
        # Force several distinct member sets through the cache.
        for i in range(6):
            system.admin.add_user("g", f"extra{i}")
            client.sync()
            client.current_group_key()
        assert len(client._hints) <= 4

    def test_line_tables_ride_on_the_cached_elements(self, world):
        """A re-key reuses the Miller lines built at the first decrypt:
        one table on the user key, one per cached hint — at most the
        cache capacity + 1 a client."""
        system, client = world
        client.current_group_key()
        usk_lines = client._user_key.element.miller_lines()
        (hint,) = client._hints.values()
        hint_lines = hint.h_pi.miller_lines()
        system.admin.rekey("g")
        client.sync()
        client.current_group_key()
        assert client._user_key.element.miller_lines() is usk_lines
        assert next(iter(client._hints.values())).h_pi.miller_lines() \
            is hint_lines


def refresh(client):
    client.sync()
    return client.current_group_key()


class TestHintUpdate:
    """A warm client (hint + witness) follows its partition by update —
    and whatever ``C3`` the signed records carry, it accepts, rejects
    and derives exactly what a cold client does."""

    @pytest.fixture()
    def warm(self, world):
        system, client = world
        client.current_group_key()
        system.admin.remove_user("g", "user1")
        refresh(client)             # the first change builds the witness
        assert (client.expansion_count, client.hint_updates) == (2, 1)
        assert client._last[0].witness is not None
        return system, client

    def serve(self, system, pid=0, c1=None, c3=None):
        """Replace partition ``pid``'s stored record by one differing in
        ``C1`` / ``C3`` only, signed by the administrator."""
        path = partition_path("g", pid)
        record = system.admin.group_state("g").records[pid]
        parts = list(ibbe.IbbeCiphertext.split(system.public_key.group,
                                               record.ciphertext))
        parts[0], parts[2] = c1 or parts[0], c3 or parts[2]
        forged = PartitionRecord(record.group_id, pid, record.members,
                                 b"".join(parts), record.envelope)
        system.cloud.put(path, forged.signed(system.admin._signing_key))

    def c3_of(self, system, pid):
        record = system.admin.group_state("g").records[pid]
        return ibbe.IbbeCiphertext.split(system.public_key.group,
                                         record.ciphertext)[2]

    def off_subgroup(self, system):
        group = system.public_key.group
        return off_subgroup_point(group.curve, group.q, "c3").encode()

    def test_add_and_remove_are_updates(self, warm):
        system, client = warm
        system.admin.add_user("g", "late")
        assert "late" in system.admin.group_state("g").records[0].members
        key = refresh(client)
        system.admin.remove_user("g", "user2")
        assert refresh(client) != key
        assert (client.expansion_count, client.hint_updates,
                client.hint_fallbacks) == (2, 3, 0)
        assert refresh(system.make_client("g", "user0")) \
            == client.current_group_key()

    @pytest.mark.parametrize("which", ["foreign", "off_subgroup", "stale"])
    def test_wrong_c3_falls_back_to_the_cold_verdict(self, warm, which):
        system, client = warm
        stale = self.c3_of(system, 0)
        system.admin.remove_user("g", "user2")
        self.serve(system, c3={"foreign": self.c3_of(system, 1),
                               "off_subgroup": self.off_subgroup(system),
                               "stale": stale}[which])
        key = refresh(client)
        assert key == refresh(system.make_client("g", "user0"))
        assert (client.hint_fallbacks, client.hint_updates) == (1, 1)
        # The from-scratch hint carries no witness: nothing of the bad
        # record survives into the next change.
        system.admin.remove_user("g", "user3")
        assert refresh(client) == refresh(system.make_client("g", "user0"))
        assert (client.hint_fallbacks, client.hint_updates) == (1, 2)

    def test_wrong_stored_c3_surfaces_one_change_late(self, warm):
        """An add reads the ``C3`` of the record decrypted *before* it,
        and only into the witness: a bad one is found out by the change
        after — and discarded there."""
        system, client = warm
        self.serve(system, c3=self.off_subgroup(system))
        refresh(client)                     # same members: a hint hit
        system.admin.add_user("g", "late")
        refresh(client)
        assert (client.hint_fallbacks, client.hint_updates) == (0, 2)
        system.admin.remove_user("g", "user2")
        assert refresh(client) == refresh(system.make_client("g", "user0"))
        assert (client.hint_fallbacks, client.hint_updates) == (1, 2)

    def test_bad_c1_raises_what_a_cold_client_raises(self, warm):
        system, client = warm
        system.admin.remove_user("g", "user2")
        self.serve(system, c1=self.off_subgroup(system))
        client.sync()
        with pytest.raises(PairingError, match="C1 is not in the order-q"):
            client.current_group_key()
        cold = system.make_client("g", "user0")
        cold.sync()
        with pytest.raises(PairingError, match="C1 is not in the order-q"):
            cold.current_group_key()
        assert client.hint_fallbacks == 1

    def test_revoked_warm_client_is_locked_out(self, warm):
        system, client = warm
        system.admin.remove_user("g", "user0")
        client.sync()
        with pytest.raises(RevokedError):
            client.current_group_key()
        assert (client.hint_fallbacks, client.hint_updates) == (0, 1)


class TestFreshness:
    def test_rollback_detected(self, world):
        system, client = world
        path = descriptor_path("g")
        old_descriptor = system.cloud.get(path).data
        system.admin.remove_user("g", "user1")
        client.sync()
        client.current_group_key()
        # The curious cloud replays the pre-revocation descriptor.
        system.cloud.put(path, old_descriptor)
        with pytest.raises(StaleMetadataError):
            client.sync()

    def test_replay_of_current_descriptor_accepted(self, world):
        system, client = world
        path = descriptor_path("g")
        current = system.cloud.get(path).data
        system.cloud.put(path, current)  # same epoch: no rollback
        client.sync()

    def test_epoch_progresses_across_operations(self, world):
        system, client = world
        assert client._highest_epoch == 0
        system.admin.add_user("g", "x1")
        system.admin.remove_user("g", "x1")
        client.sync()
        assert client._highest_epoch == 2
