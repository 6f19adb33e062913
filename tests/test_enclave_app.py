"""Tests for the IBBE-SGX enclave application (Algorithms 1-3, trusted side)."""

import pytest

from repro import ibbe
from repro.crypto.envelope import unwrap_group_key
from repro.crypto.rng import DeterministicRng
from repro.enclave_app import IbbeEnclave
from repro.errors import EnclaveError
from repro.pairing.group import GTElement
from repro.sgx.device import SgxDevice


@pytest.fixture()
def loaded(group):
    device = SgxDevice(rng=DeterministicRng("enclave-app"))
    enclave = IbbeEnclave.load(device, {"pairing_group": group})
    pk, sealed_msk = enclave.call("setup_system", 8)
    return device, enclave, pk, sealed_msk


def _decrypt_blob(pk, enclave, blob, members, identity, group_id="g"):
    """Member-side derivation of gk from a partition blob."""
    usk_raw = enclave.call("extract_user_key_raw", identity)
    from repro.pairing.group import G1Element
    usk = ibbe.IbbeUserKey(identity, G1Element.decode(pk.group, usk_raw))
    ct = ibbe.IbbeCiphertext.decode(pk.group, blob.ciphertext)
    bk = ibbe.decrypt(pk, usk, members, ct)
    return unwrap_group_key(bk.digest(), blob.envelope,
                            aad=group_id.encode("utf-8"))


class TestLifecycle:
    def test_double_setup_rejected(self, loaded):
        _, enclave, _, _ = loaded
        with pytest.raises(EnclaveError):
            enclave.call("setup_system", 8)

    def test_requires_pairing_group_config(self):
        device = SgxDevice(rng=DeterministicRng("no-config"))
        with pytest.raises(EnclaveError):
            IbbeEnclave.load(device, {})

    def test_operations_require_setup(self, group):
        device = SgxDevice(rng=DeterministicRng("fresh"))
        enclave = IbbeEnclave.load(device, {"pairing_group": group})
        with pytest.raises(EnclaveError):
            enclave.call("extract_user_key_raw", "alice")

    def test_restore_from_sealed_msk(self, loaded, group):
        device, enclave, pk, sealed_msk = loaded
        usk_before = enclave.call("extract_user_key_raw", "alice")
        # A fresh instance of the same enclave code on the same device.
        twin = IbbeEnclave.load(device, {"pairing_group": group})
        twin.call("restore_system", sealed_msk, pk)
        assert twin.call("extract_user_key_raw", "alice") == usk_before

    def test_restore_on_wrong_device_fails(self, loaded, group):
        _, _, pk, sealed_msk = loaded
        other_device = SgxDevice(rng=DeterministicRng("other-device"))
        imposter = IbbeEnclave.load(other_device, {"pairing_group": group})
        from repro.errors import SealingError
        with pytest.raises(SealingError):
            imposter.call("restore_system", sealed_msk, pk)


class TestCreateGroup:
    def test_partition_blobs_decrypt_to_same_gk(self, loaded):
        _, enclave, pk, _ = loaded
        parts = [["a", "b", "c"], ["d", "e"]]
        blobs, sealed_gk = enclave.call("create_group", "g", parts)
        assert len(blobs) == 2
        gk0 = _decrypt_blob(pk, enclave, blobs[0], parts[0], "a")
        gk1 = _decrypt_blob(pk, enclave, blobs[1], parts[1], "e")
        assert gk0 == gk1
        assert len(gk0) == 32

    def test_gk_not_in_any_output(self, loaded):
        """Zero knowledge: the plaintext gk must not cross the boundary."""
        _, enclave, pk, _ = loaded
        parts = [["a", "b"]]
        blobs, sealed_gk = enclave.call("create_group", "g", parts)
        gk = _decrypt_blob(pk, enclave, blobs[0], parts[0], "a")
        assert gk not in blobs[0].ciphertext
        assert gk not in blobs[0].envelope
        assert gk not in sealed_gk

    def test_envelopes_bound_to_group(self, loaded):
        _, enclave, pk, _ = loaded
        blobs, _ = enclave.call("create_group", "g1", [["a"]])
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            _decrypt_blob(pk, enclave, blobs[0], ["a"], "a", group_id="g2")


class TestAddUser:
    def test_existing_partition_path(self, loaded):
        _, enclave, pk, _ = loaded
        blobs, sealed_gk = enclave.call("create_group", "g", [["a", "b"]])
        new_ct = enclave.call(
            "add_user_to_partition", blobs[0].ciphertext, "c"
        )
        from repro.enclave_app import PartitionBlob
        blob = PartitionBlob(ciphertext=new_ct, envelope=blobs[0].envelope)
        gk_new = _decrypt_blob(pk, enclave, blob, ["a", "b", "c"], "c")
        gk_old = _decrypt_blob(pk, enclave, blobs[0], ["a", "b"], "a")
        assert gk_new == gk_old  # add does not rekey

    def test_new_partition_path(self, loaded):
        _, enclave, pk, _ = loaded
        blobs, sealed_gk = enclave.call("create_group", "g", [["a", "b"]])
        new_blob = enclave.call("create_partition", "g", ["z"], sealed_gk)
        gk_z = _decrypt_blob(pk, enclave, new_blob, ["z"], "z")
        gk_a = _decrypt_blob(pk, enclave, blobs[0], ["a", "b"], "a")
        assert gk_z == gk_a


class TestRemoveUser:
    def test_remove_rekeys_all_partitions(self, loaded):
        _, enclave, pk, _ = loaded
        parts = [["a", "b", "c"], ["d", "e"]]
        blobs, _ = enclave.call("create_group", "g", parts)
        gk_old = _decrypt_blob(pk, enclave, blobs[0], parts[0], "a")

        host_blob, other_blobs, sealed_gk = enclave.call(
            "remove_user", "g", "b", blobs[0].ciphertext,
            [blobs[1].ciphertext],
        )
        gk_host = _decrypt_blob(pk, enclave, host_blob, ["a", "c"], "a")
        gk_other = _decrypt_blob(pk, enclave, other_blobs[0], parts[1], "d")
        assert gk_host == gk_other
        assert gk_host != gk_old

    def test_removed_user_cannot_decrypt(self, loaded, group):
        _, enclave, pk, _ = loaded
        blobs, _ = enclave.call("create_group", "g", [["a", "b", "c"]])
        host_blob, _, _ = enclave.call(
            "remove_user", "g", "b", blobs[0].ciphertext, []
        )
        usk_raw = enclave.call("extract_user_key_raw", "b")
        from repro.pairing.group import G1Element
        usk_b = ibbe.IbbeUserKey("b", G1Element.decode(group, usk_raw))
        ct = ibbe.IbbeCiphertext.decode(group, host_blob.ciphertext)
        derived = ibbe.decrypt(pk, usk_b, ["a", "c", "b"], ct)
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            unwrap_group_key(derived.digest(), host_blob.envelope,
                             aad=b"g")


class TestRekeyGroup:
    def test_rekey_changes_gk_keeps_members(self, loaded):
        _, enclave, pk, _ = loaded
        parts = [["a", "b"], ["c"]]
        blobs, _ = enclave.call("create_group", "g", parts)
        gk_old = _decrypt_blob(pk, enclave, blobs[0], parts[0], "a")
        new_blobs, _ = enclave.call(
            "rekey_group", "g", [b.ciphertext for b in blobs]
        )
        gk_new = _decrypt_blob(pk, enclave, new_blobs[0], parts[0], "b")
        assert gk_new != gk_old
        assert gk_new == _decrypt_blob(pk, enclave, new_blobs[1], parts[1], "c")


class TestRollbackProtection:
    def test_stale_sealed_gk_rejected(self, loaded):
        _, enclave, pk, _ = loaded
        blobs, sealed_v1 = enclave.call("create_group", "g", [["a", "b"]])
        _, _, sealed_v2 = enclave.call(
            "remove_user", "g", "b", blobs[0].ciphertext, []
        )
        # Replaying the pre-revocation sealed gk must be detected.
        with pytest.raises(EnclaveError, match="rollback"):
            enclave.call("create_partition", "g", ["z"], sealed_v1)

    def test_current_sealed_gk_accepted(self, loaded):
        _, enclave, pk, _ = loaded
        blobs, sealed_v1 = enclave.call("create_group", "g", [["a", "b"]])
        _, _, sealed_v2 = enclave.call(
            "remove_user", "g", "b", blobs[0].ciphertext, []
        )
        enclave.call("create_partition", "g", ["z"], sealed_v2)
