"""Multi-administrator extension tests: MSK migration + lock-free OCC."""

import pytest

from repro import ibbe
from repro.core.multiadmin import ConcurrentAdministrator
from repro.crypto import ecies
from repro.crypto.rng import DeterministicRng
from repro.enclave_app import IbbeEnclave
from repro.errors import (
    AttestationError,
    AuthenticationError,
    ConflictError,
    EnclaveError,
    MembershipError,
)
from repro.sgx.attestation import mutual_attest, provision_master_secret
from repro.sgx.device import SgxDevice
from tests.conftest import make_system, provisioned_usk


def make_second_admin(system, seed: str = "admin2"):
    """A second administrator: own enclave on its own device, migrated
    MSK, shared signing key (the organisational role key)."""
    return system.join(SgxDevice(rng=DeterministicRng(f"{seed}-device")),
                       rng=DeterministicRng(seed)).admin


class TestMskMigration:
    """The one way a master secret travels: the mutually attested peer
    exchange behind :meth:`System.join`.  Every refusal is pinned to its
    message and, observed through the doors, leaves nothing installed."""

    @staticmethod
    def fresh_enclave(system, seed, enclave_class=IbbeEnclave):
        """An MSK-less enclave configured exactly like ``system``'s, on
        its own registered platform."""
        device = SgxDevice(rng=DeterministicRng(seed))
        system.ias.register_device(device.device_id,
                                   device.attestation_public_key)
        return enclave_class.load(device, dict(system.enclave.config))

    def test_migrated_enclave_extracts_identical_keys(self):
        system = make_system("mig1", capacity=4)
        admin2 = make_second_admin(system)
        assert (provisioned_usk(system.enclave, "alice")
                == provisioned_usk(admin2.enclave, "alice"))

    def test_migration_requires_same_measurement(self):
        system = make_system("mig2", capacity=4)

        class PatchedEnclave(IbbeEnclave):
            """Different code → different measurement."""

        rogue = self.fresh_enclave(system, "mig2-dev", PatchedEnclave)
        with pytest.raises(AttestationError,
                           match="enclave runs different code"):
            provision_master_secret(system.enclave, rogue, system.ias,
                                    system.public_key)
        with pytest.raises(AttestationError, match="mutually attested"):
            system.enclave.call("export_master_secret_to_peer",
                                rogue.call("get_public_key"))
        with pytest.raises(EnclaveError, match="not set up"):
            rogue.call("get_system_bound")

    def test_import_rejected_when_already_provisioned(self):
        system = make_system("mig3", capacity=4)
        second = make_second_admin(system, "mig3-b")
        with pytest.raises(EnclaveError,
                           match="already holds a master secret"):
            second.enclave.call("import_master_secret_from_peer", b"x",
                                system.public_key,
                                system.enclave.call("get_public_key"))

    def test_blob_unreadable_by_third_enclave(self):
        """The migration blob is bound to the attested target's key: fed
        to another peer — attested just as well — it fails authentication
        and installs nothing."""
        system = make_system("mig4", capacity=4)
        target = self.fresh_enclave(system, "mig4-b")
        third = self.fresh_enclave(system, "mig4-c")
        for peer in (target, third):
            mutual_attest(system.enclave, peer, system.ias)
        blob = system.enclave.call("export_master_secret_to_peer",
                                   target.call("get_public_key"))
        with pytest.raises(AuthenticationError, match="GCM tag"):
            third.call("import_master_secret_from_peer", blob,
                       system.public_key,
                       system.enclave.call("get_public_key"))
        with pytest.raises(EnclaveError, match="not set up"):
            third.call("get_system_bound")

    def test_host_chosen_master_secret_is_refused(self):
        """The host runs IBBE setup itself and wraps its own ``(γ, g)``
        to a fresh enclave's public identity key.  No door installs it —
        ``import_master_secret``, which authenticated no sender and did,
        is tried by name to show it is gone."""
        system = make_system("mig5", capacity=4)
        fresh = self.fresh_enclave(system, "mig5-dev")
        host_rng = DeterministicRng("mig5-host")
        msk, pk = ibbe.setup(system.group, 4, host_rng)
        chosen = msk.gamma.to_bytes(64, "big") + msk.g.encode()
        fresh_key = ecies.EciesPublicKey.decode(fresh.call("get_public_key"))
        host_key = ecies.generate_keypair(host_rng).public_key().encode()

        def wrapped(aad):
            return fresh_key.encrypt(chosen, host_rng, aad=aad)

        refusals = [
            ("import_master_secret", (wrapped(b"msk-migration"), pk),
             "not a registered ecall"),
            ("import_master_secret_from_peer",
             (wrapped(b"msk-peer"), pk, host_key),
             "not a mutually attested peer"),
            # A genuine enclave's key is no better: it never attested to
            # this one.
            ("import_master_secret_from_peer",
             (wrapped(b"msk-peer"), pk,
              system.enclave.call("get_public_key")),
             "not a mutually attested peer"),
            ("restore_system", (wrapped(b"ibbe-msk"), pk),
             "not a sealed blob"),
        ]
        for door, args, reason in refusals:
            with pytest.raises(EnclaveError, match=reason):
                fresh.call(door, *args)
        with pytest.raises(EnclaveError, match="not set up"):
            fresh.call("get_system_bound")


class TestJoinedAdministratorRestart:
    def test_joined_administrator_restarts_and_keeps_operating(self):
        """A joined administrator holds its own sealed MSK copy, so it
        restarts like the first one and keeps operating."""
        system = make_system("rejoin", capacity=4)
        second = system.join(
            SgxDevice(rng=DeterministicRng("rejoin-b-device")),
            rng=DeterministicRng("rejoin-b"))
        system.admin.create_group("g", ["a", "b", "c"])
        second.admin.load_group_from_cloud("g")

        second.restart_enclave()
        second.admin.add_user("g", "d")
        second.admin.remove_user("g", "b")
        # One reader provisioned by each administrator's enclave.
        reader_a = system.make_client("g", "a")
        reader_d = second.make_client("g", "d")
        reader_a.sync(); reader_d.sync()
        after_second = reader_a.current_group_key()
        assert reader_d.current_group_key() == after_second

        system.admin.sync_group("g")
        system.admin.remove_user("g", "c")
        reader_a.sync(); reader_d.sync()
        assert reader_a.current_group_key() != after_second
        assert reader_a.current_group_key() == reader_d.current_group_key()


class TestCrossEnclaveSealedKey:
    """Sealed group keys are platform-bound; a second admin must recover
    the gk through the enclave (MSK) rather than unseal a foreign blob."""

    def test_add_after_other_admins_rekey(self):
        # The interleaving the convergence property test originally found:
        # B revokes (pushing a gk sealed by B's enclave); A reloads and
        # then needs the gk to open a new partition.
        system = make_system("xseal", capacity=2)
        admin_a = system.admin
        admin_b = make_second_admin(system, "xseal-b")
        admin_a.create_group("g", ["a", "b", "c", "d"])

        admin_b.load_group_from_cloud("g")
        admin_b.remove_user("g", "b")   # sealed gk now from B's enclave

        admin_a.load_group_from_cloud("g")
        # All partitions full after the next add → new-partition path →
        # A must open the (foreign) sealed gk.
        admin_a.add_user("g", "e")
        admin_a.add_user("g", "f")

        client_old = system.make_client("g", "a")
        client_new = system.make_client("g", "f")
        client_old.sync(); client_new.sync()
        assert client_old.current_group_key() == client_new.current_group_key()

    def test_batch_add_rebuilds_its_whole_batch_after_recovery(self):
        # B revokes "b", so the sealed gk is B's.  A's three joiners fill
        # the partition {a} and open a fresh one: the batch rebuilds one
        # partition and creates another, and both ecalls need the gk.
        # The first SealingError rebuilds the whole batch.
        system = make_system("xseal-batch", capacity=2)
        admin_a = system.admin
        admin_b = make_second_admin(system, "xseal-batch-b")
        admin_a.create_group("g", ["a", "b", "c", "d"])
        admin_b.load_group_from_cloud("g")
        admin_b.remove_user("g", "b")
        admin_a.load_group_from_cloud("g")

        enclave, requests = admin_a.enclave, []

        class Recording:
            def call(self, name, *args):
                requests.append((name, args))
                return enclave.call(name, *args)

            def call_batch(self, batch):
                requests.append(list(batch))
                return enclave.call_batch(batch)

        admin_a.enclave = Recording()
        crossings = enclave.meter.crossings
        try:
            admin_a.add_users("g", ["e", "f", "h"])
        finally:
            admin_a.enclave = enclave
        assert enclave.meter.crossings - crossings == 3
        first, recovery, rebuilt = requests
        batch = ["create_partition", "create_partition"]
        assert [name for name, _ in first] == batch
        assert recovery[0] == "recover_and_reseal"
        assert [name for name, _ in rebuilt] == batch
        # The rebuilt create_partition carries A's own re-sealed gk.
        resealed = admin_a.group_state("g").sealed_group_key
        assert first[1][1][2] != resealed == rebuilt[1][1][2]

        keys = set()
        for member in admin_a.members("g"):
            client = system.make_client("g", member)
            client.sync()
            keys.add(client.current_group_key())
        assert sorted(admin_a.members("g")) == ["a", "c", "d", "e", "f", "h"]
        assert len(keys) == 1

    def test_recover_and_reseal_matches_original_gk(self):
        system = make_system("xseal2", capacity=4)
        system.admin.create_group("g", ["a", "b"])
        record = next(iter(system.admin.group_state("g").records.values()))
        sealed = system.enclave.call(
            "recover_and_reseal", "g", list(record.members),
            record.ciphertext, record.envelope,
        )
        # The recovered gk (behind the new seal) matches what members see.
        blob = system.enclave.call("create_partition", "g", ["z"], sealed)
        client = system.make_client("g", "a")
        client.sync()
        from repro.crypto.envelope import unwrap_group_key
        from repro import ibbe as ibbe_mod
        usk = system.user_key("z")
        ct = ibbe_mod.IbbeCiphertext.decode(system.group, blob.ciphertext)
        bk = ibbe_mod.decrypt(system.public_key, usk, ["z"], ct)
        gk = unwrap_group_key(bk.digest(), blob.envelope, aad=b"g")
        assert gk == client.current_group_key()

    def test_recover_requires_members(self):
        system = make_system("xseal3", capacity=4)
        system.admin.create_group("g", ["a"])
        record = next(iter(system.admin.group_state("g").records.values()))
        with pytest.raises(EnclaveError):
            system.enclave.call("recover_and_reseal", "g", [],
                                record.ciphertext, record.envelope)


class TestConcurrentAdministration:
    def test_sequential_ops_from_two_admins(self):
        system = make_system("occ1", capacity=4)
        admin1 = ConcurrentAdministrator(system.admin)
        admin2 = ConcurrentAdministrator(make_second_admin(system, "occ1b"))

        admin1.create_group("g", ["a", "b", "c"])
        admin2.refresh("g")
        admin2.add_user("g", "d")
        # admin1's view is now stale; the retry loop must recover.
        admin1.add_user("g", "e")
        assert admin1.conflicts_resolved >= 1
        members = set(system.admin.members("g"))
        assert members == {"a", "b", "c", "d", "e"}

    def test_interleaved_removals_converge(self):
        system = make_system("occ2", capacity=4)
        admin1 = ConcurrentAdministrator(system.admin)
        admin2 = ConcurrentAdministrator(make_second_admin(system, "occ2b"))
        admin1.create_group("g", [f"u{i}" for i in range(8)])
        admin2.refresh("g")

        admin1.remove_user("g", "u0")
        admin2.remove_user("g", "u1")   # stale → retry
        admin1.remove_user("g", "u2")   # stale again → retry
        survivors = set(admin1.admin.load_group_from_cloud("g")
                        .table.all_members())
        assert survivors == {"u3", "u4", "u5", "u6", "u7"}

    def test_clients_follow_multi_admin_rekeys(self):
        system = make_system("occ3", capacity=4)
        admin1 = ConcurrentAdministrator(system.admin)
        admin2 = ConcurrentAdministrator(make_second_admin(system, "occ3b"))
        admin1.create_group("g", ["a", "b", "c"])
        client = system.make_client("g", "a")
        client.sync()
        gk0 = client.current_group_key()

        admin2.refresh("g")
        admin2.remove_user("g", "b")
        client.sync()
        gk1 = client.current_group_key()
        assert gk1 != gk0

        admin1.remove_user("g", "c")   # stale → retry via reload
        client.sync()
        gk2 = client.current_group_key()
        assert gk2 != gk1

    def test_conflicting_semantic_ops_surface(self):
        """Both admins revoke the same user: the second sees a clean
        MembershipError after refreshing, not silent corruption."""
        system = make_system("occ4", capacity=4)
        admin1 = ConcurrentAdministrator(system.admin)
        admin2 = ConcurrentAdministrator(make_second_admin(system, "occ4b"))
        admin1.create_group("g", ["a", "b", "c"])
        admin2.refresh("g")
        admin1.remove_user("g", "b")
        with pytest.raises(MembershipError):
            admin2.remove_user("g", "b")

    def test_retry_budget_exhausted(self):
        system = make_system("occ5", capacity=4)
        admin = ConcurrentAdministrator(system.admin, max_retries=2)
        admin.create_group("g", ["a", "b"])

        # An adversarial interleaving: something bumps the descriptor
        # version between every resync and retry (the conflict loop
        # refreshes cached groups through sync_group).
        original_sync = system.admin.sync_group

        def sync_and_race(group_id):
            changed = original_sync(group_id)
            # Simulate a competing admin racing ahead again.
            from repro.core.metadata import descriptor_path
            obj = system.cloud.get(descriptor_path(group_id))
            system.cloud.put(descriptor_path(group_id), obj.data)
            return changed

        system.admin.sync_group = sync_and_race
        # Make the cached view stale before the first attempt, too.
        from repro.core.metadata import descriptor_path
        obj = system.cloud.get(descriptor_path("g"))
        system.cloud.put(descriptor_path("g"), obj.data)
        with pytest.raises(ConflictError, match="kept conflicting"):
            admin.add_user("g", "c")
