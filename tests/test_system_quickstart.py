"""System wiring tests: quickstart_system, multi-group administration,
and client robustness to storage-layer event anomalies."""

import pytest

from repro import quickstart_system
from repro.cloud import CloudStore, LatencyModel
from repro.crypto.rng import DeterministicRng
from repro.errors import AccessControlError
from tests.conftest import make_system


class TestQuickstart:
    def test_wiring(self):
        system = make_system("qs")
        assert system.enclave.device is system.device
        assert system.admin.enclave is system.enclave
        assert system.admin.cloud is system.cloud
        # The trust chain is established at construction.
        system.certificate.verify(system.auditor.ca_public_key)

    def test_user_key_cached(self):
        system = make_system("qs-cache")
        a = system.user_key("alice")
        b = system.user_key("alice")
        assert a is b

    def test_user_keys_work_for_clients(self):
        system = make_system("qs-keys")
        system.admin.create_group("g", ["alice"])
        client = system.make_client("g", "alice")
        client.sync()
        assert len(client.current_group_key()) == 32

    def test_system_bound_enforced(self):
        system = quickstart_system(
            partition_capacity=4, params="toy64",
            rng=DeterministicRng("bound"), system_bound=4,
        )
        system.admin.create_group("g", ["a"])
        with pytest.raises(AccessControlError, match="bound"):
            system.admin.repartition("g", new_capacity=8)

    def test_latency_model_plumbed(self):
        system = quickstart_system(
            partition_capacity=4, params="toy64",
            rng=DeterministicRng("lat"),
            cloud=CloudStore(latency=LatencyModel.public_cloud(seed="qs")),
        )
        system.admin.create_group("g", ["a"])
        assert system.cloud.metrics.simulated_latency_ms > 0

    def test_ias_key_pinned_in_enclave_config(self):
        """The one pin in the measured configuration is the IAS report
        key (what peers attest each other under); the Auditor is the
        users' CA and never enters the enclave."""
        system = make_system("qs-pin")
        config = system.enclave.config
        assert config["ias_report_key"] \
            == system.ias.report_public_key.encode().hex()
        assert "ca_public_key" not in config
        assert set(config) == {"pairing_group", "ias_report_key", "workers"}


class TestMultiGroupAdministration:
    def test_one_admin_many_groups(self):
        """§II: few administrators manage membership for many groups."""
        system = make_system("multi-group", capacity=3)
        for g in range(5):
            system.admin.create_group(f"g{g}", [f"g{g}-u{i}"
                                                for i in range(4)])
        # Independent keys per group.
        keys = set()
        for g in range(5):
            client = system.make_client(f"g{g}", f"g{g}-u0")
            client.sync()
            keys.add(client.current_group_key())
        assert len(keys) == 5

        # A revocation in one group leaves the others untouched.
        observers = {}
        for g in (1, 2):
            client = system.make_client(f"g{g}", f"g{g}-u1")
            client.sync()
            observers[g] = (client, client.current_group_key())
        system.admin.remove_user("g1", "g1-u0")
        for g, (client, old_key) in observers.items():
            client.sync()
            if g == 1:
                assert client.current_group_key() != old_key
            else:
                assert client.current_group_key() == old_key

    def test_shared_user_across_groups(self):
        system = make_system("shared-user", capacity=3)
        system.admin.create_group("eng", ["alice", "bob"])
        system.admin.create_group("ops", ["alice", "carol"])
        eng = system.make_client("eng", "alice")
        ops = system.make_client("ops", "alice")
        eng.sync(); ops.sync()
        assert eng.current_group_key() != ops.current_group_key()
        # Revoked from one group, still in the other.
        system.admin.remove_user("eng", "alice")
        eng.sync(); ops.sync()
        from repro.errors import RevokedError
        with pytest.raises(RevokedError):
            eng.current_group_key()
        ops.current_group_key()


class TestClientEventRobustness:
    def test_duplicate_events_tolerated(self):
        """At-least-once event delivery must not confuse the client."""
        system = make_system("dup-events", capacity=3)
        system.admin.create_group("g", ["a", "b"])
        client = system.make_client("g", "a")

        original_poll = system.cloud.poll_dir

        def duplicating_poll(directory, after_sequence=0):
            events, cursor = original_poll(directory, after_sequence)
            return list(events) + list(events), cursor

        system.cloud.poll_dir = duplicating_poll
        client.sync()
        gk = client.current_group_key()
        system.admin.rekey("g")
        client.sync()
        assert client.current_group_key() != gk

    def test_empty_poll_rounds(self):
        system = make_system("quiet", capacity=3)
        system.admin.create_group("g", ["a"])
        client = system.make_client("g", "a")
        client.sync()
        for _ in range(3):
            assert not client.sync()
        client.current_group_key()
