"""Client-side hardening tests: decrypt-hint caching and freshness."""

import pytest

from repro import ibbe
from repro.core.metadata import descriptor_path
from repro.errors import StaleMetadataError
from tests.conftest import make_system

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

    def test_enforcement_can_be_disabled(self, world):
        system, _ = world
        relaxed = system.make_client("g", "user2")
        relaxed.enforce_freshness = False
        relaxed.sync()
        path = descriptor_path("g")
        old_descriptor = system.cloud.get(path).data
        system.admin.remove_user("g", "user3")
        relaxed.sync()
        system.cloud.put(path, old_descriptor)
        relaxed.sync()  # tolerated when explicitly disabled

    def test_epoch_progresses_across_operations(self, world):
        system, client = world
        assert client._highest_epoch == 0
        system.admin.add_user("g", "x1")
        system.admin.remove_user("g", "x1")
        client.sync()
        assert client._highest_epoch == 2
