"""Persistence and recovery tests: PK serialization, deterministic device
identity, admin group recovery from the cloud."""

import pytest

from repro import ibbe
from repro.crypto.rng import DeterministicRng
from repro.enclave_app import IbbeEnclave
from repro.errors import ReproError, SchemeError
from repro.serialize import Writer
from repro.sgx.device import SgxDevice
from tests.conftest import make_system, provisioned_usk


class TestPublicKeySerialization:
    def test_roundtrip(self, group, ibbe_system):
        _, pk = ibbe_system
        decoded = ibbe.IbbePublicKey.decode(pk.encode(), group)
        assert decoded.m == pk.m
        assert decoded.w == pk.w
        assert decoded.v == pk.v
        assert decoded.h_powers == pk.h_powers

    def test_roundtrip_reconstructs_group(self, ibbe_system):
        _, pk = ibbe_system
        decoded = ibbe.IbbePublicKey.decode(pk.encode())  # group from preset
        assert decoded.group.q == pk.group.q

    def test_decoded_key_usable(self, group, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        decoded = ibbe.IbbePublicKey.decode(pk.encode(), group)
        members = ["user0", "user1"]
        bk, ct = ibbe.encrypt_pk(decoded, members, rng)
        assert ibbe.decrypt(decoded, user_keys["user0"], members, ct) == bk

    def test_wrong_group_rejected(self, ibbe_system):
        from repro.pairing import PairingGroup, generate_params
        _, pk = ibbe_system
        other = PairingGroup(
            generate_params(32, 64, DeterministicRng("other-group"))
        )
        with pytest.raises(SchemeError):
            ibbe.IbbePublicKey.decode(pk.encode(), other)

    def test_garbage_rejected(self, group):
        with pytest.raises(Exception):
            ibbe.IbbePublicKey.decode(b"junk", group)

    def test_bases_decode_equals_full_decode(self, group, ibbe_system):
        """What the engine's partition-build workers start from: the same
        ``(m, w, v, h)`` with the other ``m`` h-powers left compressed."""
        _, pk = ibbe_system
        bases = ibbe.IbbePublicKey.decode_bases(pk.encode(), group)
        full = ibbe.IbbePublicKey.decode(pk.encode(), group)
        assert (bases.m, bases.w, bases.v, bases.h) \
            == (full.m, full.w, full.v, full.h)
        assert bases.h_powers == full.h_powers[:1]
        assert ibbe.IbbePublicKey.decode_bases(pk.encode()).h == pk.h

    @pytest.mark.parametrize("decode", [ibbe.IbbePublicKey.decode,
                                        ibbe.IbbePublicKey.decode_bases],
                             ids=["full", "bases"])
    def test_both_decoders_reject_the_same_encodings(self, decode, group,
                                                     ibbe_system):
        _, pk = ibbe_system

        def framed(magic=b"IBBEPK1", preset=group.params.name,
                   h_powers=pk.h_powers):
            return (Writer().bytes_field(magic).str_field(preset)
                    .u32(pk.m).bytes_field(pk.w.encode())
                    .bytes_field(pk.v.encode())
                    .bytes_list(h.encode() for h in h_powers).getvalue())

        data = framed()
        assert data == pk.encode()
        for bad in (framed(magic=b"IBBEPK2"), framed(preset="std160"),
                    framed(h_powers=()), framed(h_powers=pk.h_powers[:-1])):
            with pytest.raises(SchemeError):
                decode(bad, group)
        for bad in [data + b"\x00"] + [data[:cut] for cut in range(len(data))]:
            with pytest.raises(ReproError):
                decode(bad, group)


class TestDeterministicDevice:
    def test_same_secret_same_platform(self):
        a = SgxDevice(device_secret=b"s" * 32)
        b = SgxDevice(device_secret=b"s" * 32)
        assert a.device_id == b.device_id
        assert a.sealing_root_key() == b.sealing_root_key()
        assert (a.attestation_public_key.encode()
                == b.attestation_public_key.encode())

    def test_different_secret_different_platform(self):
        a = SgxDevice(device_secret=b"s" * 32)
        b = SgxDevice(device_secret=b"t" * 32)
        assert a.device_id != b.device_id
        assert a.sealing_root_key() != b.sealing_root_key()

    def test_sealed_data_survives_restart(self, group):
        """The property the CLI relies on: a new process (new objects) on
        the same platform can unseal old blobs."""
        secret = b"fuses" + bytes(27)
        device_a = SgxDevice(device_secret=secret)
        enclave_a = IbbeEnclave.load(device_a, {"pairing_group": group})
        pk, sealed_msk = enclave_a.call("setup_system", 4)
        usk = provisioned_usk(enclave_a, "alice")

        device_b = SgxDevice(device_secret=secret)  # "after reboot"
        enclave_b = IbbeEnclave.load(device_b, {"pairing_group": group})
        enclave_b.call("restore_system", sealed_msk, pk)
        assert provisioned_usk(enclave_b, "alice") == usk


class TestAdminRecovery:
    def test_load_group_from_cloud(self):
        system = make_system("recovery", capacity=3)
        members = [f"u{i}" for i in range(7)]
        system.admin.create_group("g", members)
        system.admin.remove_user("g", "u2")
        original = system.admin.group_state("g")

        # A fresh administrator object (same enclave + keys) recovers the
        # group purely from cloud metadata.
        from repro.core.admin import GroupAdministrator
        fresh = GroupAdministrator(
            enclave=system.enclave,
            cloud=system.cloud,
            signing_key=system.admin._signing_key,
            partition_capacity=3,
            rng=DeterministicRng("recovered"),
        )
        recovered = fresh.load_group_from_cloud("g")
        assert set(recovered.table.all_members()) == set(
            original.table.all_members()
        )
        assert recovered.table.partition_ids == original.table.partition_ids
        assert recovered.epoch == original.epoch
        assert recovered.sealed_group_key == original.sealed_group_key

    def test_recovered_admin_can_operate(self):
        system = make_system("recovery2", capacity=3)
        system.admin.create_group("g", ["a", "b", "c", "d"])
        client = system.make_client("g", "a")
        client.sync()
        gk = client.current_group_key()

        from repro.core.admin import GroupAdministrator
        fresh = GroupAdministrator(
            enclave=system.enclave,
            cloud=system.cloud,
            signing_key=system.admin._signing_key,
            partition_capacity=3,
            rng=DeterministicRng("recovered2"),
        )
        fresh.load_group_from_cloud("g")
        fresh.remove_user("g", "b")
        client.sync()
        assert client.current_group_key() != gk

    def test_recovery_rejects_foreign_signatures(self):
        system = make_system("recovery3", capacity=3)
        system.admin.create_group("g", ["a", "b"])
        from repro.core.admin import GroupAdministrator
        from repro.crypto import ecdsa
        stranger = GroupAdministrator(
            enclave=system.enclave,
            cloud=system.cloud,
            signing_key=ecdsa.generate_keypair(DeterministicRng("x")),
            partition_capacity=3,
            rng=DeterministicRng("x2"),
        )
        from repro.errors import AuthenticationError
        with pytest.raises(AuthenticationError):
            stranger.load_group_from_cloud("g")
