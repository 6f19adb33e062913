"""Tests for the IBBE-SGX enclave application (Algorithms 1-3, trusted side)."""

from hashlib import sha256

import pytest

from repro import ibbe
from repro.crypto.envelope import unwrap_group_key
from repro.crypto.rng import DeterministicRng
from repro.ec import precomp_registry
from repro.ec.curve import Point
from repro.enclave_app import IbbeEnclave, PartitionBlob
from repro.errors import EnclaveError, ParameterError, SchemeError
from repro.pairing import PairingGroup, preset
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import trusted_view
from tests.conftest import make_system, provisioned_usk


@pytest.fixture()
def loaded(group):
    device = SgxDevice(rng=DeterministicRng("enclave-app"))
    enclave = IbbeEnclave.load(device, {"pairing_group": group})
    pk, sealed_msk = enclave.call("setup_system", 8)
    return device, enclave, pk, sealed_msk


def _decrypt_blob(pk, enclave, blob, members, identity, group_id="g"):
    """Member-side derivation of gk from a partition blob."""
    usk_raw = provisioned_usk(enclave, identity)
    from repro.pairing.group import G1Element
    usk = ibbe.IbbeUserKey(identity, G1Element.decode(pk.group, usk_raw))
    ct = ibbe.IbbeCiphertext.decode(pk.group, blob.ciphertext)
    bk = ibbe.decrypt(pk, usk, members, ct)
    return unwrap_group_key(bk.digest(), blob.envelope,
                            aad=group_id.encode("utf-8"))


def _respliced(stored, rekeyed):
    """What the administrator installs after a re-key: the fresh header
    ``C1 ‖ C2`` with the stored, unchanged ``C3`` behind it."""
    header = rekeyed.ciphertext
    return PartitionBlob(header + stored.ciphertext[len(header):],
                         rekeyed.envelope)


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
            provisioned_usk(enclave, "alice")

    def test_restore_from_sealed_msk(self, loaded, group):
        device, enclave, pk, sealed_msk = loaded
        usk_before = provisioned_usk(enclave, "alice")
        # A fresh instance of the same enclave code on the same device.
        twin = IbbeEnclave.load(device, {"pairing_group": group})
        twin.call("restore_system", sealed_msk, pk)
        assert provisioned_usk(twin, "alice") == usk_before

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
            "add_user_to_partition", blobs[0].ciphertext, ["a", "b"], ["c"]
        )
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
            "remove_user", "g", "b", ["a", "c"], [parts[1]],
        )
        gk_host = _decrypt_blob(pk, enclave, host_blob, ["a", "c"], "a")
        gk_other = _decrypt_blob(pk, enclave,
                                 _respliced(blobs[1], other_blobs[0]),
                                 parts[1], "d")
        assert gk_host == gk_other
        assert gk_host != gk_old

    def test_removed_user_cannot_decrypt(self, loaded, group):
        _, enclave, pk, _ = loaded
        blobs, _ = enclave.call("create_group", "g", [["a", "b", "c"]])
        host_blob, _, _ = enclave.call(
            "remove_user", "g", "b", ["a", "c"], []
        )
        usk_raw = provisioned_usk(enclave, "b")
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
        headers, _ = enclave.call("rekey_group", "g", parts)
        new_blobs = [_respliced(old, new) for old, new in zip(blobs, headers)]
        gk_new = _decrypt_blob(pk, enclave, new_blobs[0], parts[0], "b")
        assert gk_new != gk_old
        assert gk_new == _decrypt_blob(pk, enclave, new_blobs[1], parts[1], "c")


class TestRollbackProtection:
    def test_stale_sealed_gk_rejected(self, loaded):
        _, enclave, pk, _ = loaded
        blobs, sealed_v1 = enclave.call("create_group", "g", [["a", "b"]])
        _, _, sealed_v2 = enclave.call("remove_user", "g", "b", ["a"], [])
        # Replaying the pre-revocation sealed gk must be detected.
        with pytest.raises(EnclaveError, match="rollback"):
            enclave.call("create_partition", "g", ["z"], sealed_v1)

    def test_current_sealed_gk_accepted(self, loaded):
        _, enclave, pk, _ = loaded
        blobs, sealed_v1 = enclave.call("create_group", "g", [["a", "b"]])
        _, _, sealed_v2 = enclave.call("remove_user", "g", "b", ["a"], [])
        enclave.call("create_partition", "g", ["z"], sealed_v2)


def _twins(group, m=4):
    """Two enclaves in the same state on same-seeded devices, each with
    group "g" = [[a, b, c], [d, e]] created."""
    pair = []
    for _ in range(2):
        device = SgxDevice(rng=DeterministicRng("refusal"))
        enclave = IbbeEnclave.load(device, {"pairing_group": group})
        enclave.call("setup_system", m)
        blobs, _ = enclave.call("create_group", "g", PARTS)
        pair.append((device, enclave, blobs))
    return pair


PARTS = [["a", "b", "c"], ["d", "e"]]
FULL = ["p", "q", "r", "s"]     # a partition at the bound m = 4


def _ct(blobs):
    return blobs[0].ciphertext


#: (ecall, args given the created blobs, error) — each names one thing
#: the enclave can check about a host-supplied list or ciphertext.
REFUSALS = {
    "remove: hosting list still names the identity":
        ("remove_user", lambda b: ("g", "b", ["a", "b", "c"], [PARTS[1]]),
         SchemeError),
    "remove: another list names the identity":
        ("remove_user", lambda b: ("g", "b", ["a", "c"], [["d", "b"]]),
         SchemeError),
    "remove: empty hosting list":
        ("remove_user", lambda b: ("g", "b", [], [PARTS[1]]), SchemeError),
    "remove: duplicate in a list":
        ("remove_user", lambda b: ("g", "b", ["a", "c"], [["d", "d"]]),
         SchemeError),
    "remove: list over m":
        ("remove_user", lambda b: ("g", "b", ["a", "c"], [FULL + ["t"]]),
         ParameterError),
    "rekey: empty list":
        ("rekey_group", lambda b: ("g", [PARTS[0], []]), SchemeError),
    "rekey: duplicate in a list":
        ("rekey_group", lambda b: ("g", [["a", "a"]]), SchemeError),
    "rekey: list over m":
        ("rekey_group", lambda b: ("g", [FULL + ["t"]]), ParameterError),
    "add: identity already listed":
        ("add_user_to_partition", lambda b: (_ct(b), PARTS[0], ["b"]),
         SchemeError),
    "add: result over m":
        ("add_user_to_partition", lambda b: (_ct(b), FULL, ["t"]),
         ParameterError),
    "add: empty member list":
        ("add_user_to_partition", lambda b: (_ct(b), [], ["t"]),
         SchemeError),
    "add: ciphertext of the wrong length":
        ("add_user_to_partition", lambda b: (_ct(b)[:-1], PARTS[0], ["t"]),
         SchemeError),
    "batch add: identity repeated":
        ("add_user_to_partition", lambda b: (_ct(b), ["a"], ["t", "t"]),
         SchemeError),
    "batch add: result over m":
        ("add_user_to_partition",
         lambda b: (_ct(b), PARTS[0], ["t", "u"]), ParameterError),
    "batch add: ciphertext of the wrong length":
        ("add_user_to_partition",
         lambda b: (_ct(b) + b"\x00", PARTS[0], ["t"]), SchemeError),
}


class TestRefusalLeavesNoTrace:
    """The enclave checks the host's lists before its first rng draw or
    counter increment: a refused call changes nothing observable."""

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_call_changes_nothing(self, group, case):
        name, make_args, error = REFUSALS[case]
        (device, enclave, blobs), (_, control, _) = _twins(group)
        inside = trusted_view(enclave)
        rng_before = device.rng.getstate()
        counters_before = dict(inside._seal_counters)
        with pytest.raises(error):
            enclave.call(name, *make_args(blobs))
        assert device.rng.getstate() == rng_before
        assert inside._seal_counters == counters_before
        # ...and what follows is what would have followed anyway.
        follow_up = ("remove_user", "g", "b", ["a", "c"], [PARTS[1]])
        assert enclave.call(*follow_up) == control.call(*follow_up)


class TestBatchAdd:
    #: SHA-256 of a batch extension's output for the scenario below at
    #: commit 83b1f06, which ran two ladders per user.
    PARENT = {
        ("toy64", 1): "04032724108f9143fdab624da3701ac7"
                      "4388683b244050b17c0e549364e1607f",
        ("toy64", 2): "cac12be0c9078071d60d5ae547a35ab6"
                      "557861491643f8aae43f81b5343ab823",
        ("toy64", 7): "d0f829046c4248aa5db00a39cfd5dc60"
                      "c5ff83c7879b416f2153ceeb09d32537",
        ("std160", 1): "a18f0ace3feaee83d573dd29e055814c"
                       "9108c8b72dd7e61a0a8910b442b76187",
        ("std160", 2): "888634c1a730f6894baa55be625bbcfe"
                       "68b9cf1ba5d39d3052bf21cf07f317be",
        ("std160", 7): "e416d9b50b8045a86eb21c6adbd300fc"
                       "e9f0a32abb3bdac87d888e122488a83d",
    }

    @pytest.mark.parametrize("params,n", PARENT)
    def test_one_ladder_same_bytes(self, params, n):
        device = SgxDevice(rng=DeterministicRng("batch-add"))
        enclave = IbbeEnclave.load(
            device, {"pairing_group": PairingGroup(preset(params))})
        enclave.call("setup_system", 10)
        blobs, _ = enclave.call("create_group", "g", [["a", "b"]])
        joiners = [f"n{i}" for i in range(n)]
        ladders = precomp_registry.snapshot()["ec.precomp.misses"]
        batch = enclave.call("add_user_to_partition", blobs[0].ciphertext,
                             ["a", "b"], joiners)
        ladders = precomp_registry.snapshot()["ec.precomp.misses"] - ladders
        assert ladders == 1
        assert sha256(batch).hexdigest() == self.PARENT[params, n]
        one_by_one, members = blobs[0].ciphertext, ["a", "b"]
        for joiner in joiners:
            one_by_one = enclave.call("add_user_to_partition", one_by_one,
                                      members, [joiner])
            members = members + [joiner]
        assert batch == one_by_one

    def test_admin_batch_on_fresh_partitions_matches_single_adds(self):
        """Seven joiners to a full group: two fresh partitions, each one
        ``create_partition`` around all of its joiners."""
        joiners = [f"n{i}" for i in range(7)]
        batched, single = (make_system("fresh-batch", capacity=4)
                           for _ in range(2))
        for system in (batched, single):
            system.admin.create_group("g", ["a", "b", "c", "d"])
        batched.admin.add_users("g", joiners)
        for joiner in joiners:
            single.admin.add_user("g", joiner)
        records = [
            {pid: (record.members, record.ciphertext, record.envelope)
             for pid, record in system.admin.group_state("g").records.items()}
            for system in (batched, single)
        ]
        assert records[0] == records[1]
        assert len(records[0]) == 3


def test_ciphertext_points_decoded(loaded, monkeypatch):
    """An extension decompresses ``C2`` and nothing else; a removal and
    a re-key decompress nothing."""
    _, enclave, _, _ = loaded
    blobs, _ = enclave.call("create_group", "g", PARTS)
    decodes = []
    real = Point.decode.__func__
    monkeypatch.setattr(
        Point, "decode",
        classmethod(lambda cls, *a: decodes.append(1) or real(cls, *a)))
    enclave.call("add_user_to_partition", _ct(blobs), PARTS[0], ["t"])
    assert len(decodes) == 1
    enclave.call("remove_user", "g", "b", ["a", "c"], [PARTS[1]])
    enclave.call("rekey_group", "g", [["a", "c"], PARTS[1]])
    assert len(decodes) == 1
