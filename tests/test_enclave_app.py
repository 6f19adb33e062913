"""Tests for the IBBE-SGX enclave application (Algorithms 1-3, trusted side)."""

from hashlib import sha256

import pytest

from repro import ibbe
from repro.crypto.envelope import unwrap_group_key
from repro.core.metadata import sealed_key_path
from repro.crypto.rng import DeterministicRng
from repro.ec import precomp_registry
from repro.ec.curve import Point
from repro.enclave_app import IbbeEnclave, PartitionBlob
from repro.errors import (
    EnclaveError,
    ParameterError,
    RevokedError,
    SchemeError,
    SealingError,
    UnavailableError,
)
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
        blob = enclave.call("create_partition", "g", ["a", "b", "c"],
                            sealed_gk)
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
        created = enclave.call("create_group", "g", PARTS)
        pair.append((device, enclave, created))
    return pair


PARTS = [["a", "b", "c"], ["d", "e"]]
FULL = ["p", "q", "r", "s"]     # a partition at the bound m = 4


def _ct(created):
    return created[0][0].ciphertext


#: (ecall, args given the created blobs and sealed key, error) — each
#: names one thing the enclave can check about a host-supplied list,
#: ciphertext or sealed key.
REFUSALS = {
    "remove: hosting list still names the identity":
        ("remove_user", lambda c: ("g", "b", ["a", "b", "c"], [PARTS[1]]),
         SchemeError),
    "remove: another list names the identity":
        ("remove_user", lambda c: ("g", "b", ["a", "c"], [["d", "b"]]),
         SchemeError),
    "remove: empty hosting list":
        ("remove_user", lambda c: ("g", "b", [], [PARTS[1]]), SchemeError),
    "remove: duplicate in a list":
        ("remove_user", lambda c: ("g", "b", ["a", "c"], [["d", "d"]]),
         SchemeError),
    "remove: list over m":
        ("remove_user", lambda c: ("g", "b", ["a", "c"], [FULL + ["t"]]),
         ParameterError),
    "rekey: empty list":
        ("rekey_group", lambda c: ("g", [PARTS[0], []]), SchemeError),
    "rekey: duplicate in a list":
        ("rekey_group", lambda c: ("g", [["a", "a"]]), SchemeError),
    "rekey: list over m":
        ("rekey_group", lambda c: ("g", [FULL + ["t"]]), ParameterError),
    "add: identity already listed":
        ("add_user_to_partition", lambda c: (_ct(c), PARTS[0], ["b"]),
         SchemeError),
    "add: result over m":
        ("add_user_to_partition", lambda c: (_ct(c), FULL, ["t"]),
         ParameterError),
    "add: empty member list":
        ("add_user_to_partition", lambda c: (_ct(c), [], ["t"]),
         SchemeError),
    "add: ciphertext of the wrong length":
        ("add_user_to_partition", lambda c: (_ct(c)[:-1], PARTS[0], ["t"]),
         SchemeError),
    "batch add: identity repeated":
        ("add_user_to_partition", lambda c: (_ct(c), ["a"], ["t", "t"]),
         SchemeError),
    "batch add: result over m":
        ("add_user_to_partition",
         lambda c: (_ct(c), PARTS[0], ["t", "u"]), ParameterError),
    "batch add: ciphertext of the wrong length":
        ("add_user_to_partition",
         lambda c: (_ct(c) + b"\x00", PARTS[0], ["t"]), SchemeError),
    "rebuild: identity already listed":
        ("create_partition", lambda c: ("g", PARTS[0] + ["b"], c[1]),
         SchemeError),
    "rebuild: identity repeated":
        ("create_partition", lambda c: ("g", ["a", "t", "t"], c[1]),
         SchemeError),
    "rebuild: result over m":
        ("create_partition", lambda c: ("g", PARTS[0] + ["t", "u"], c[1]),
         ParameterError),
    "rebuild: empty member list":
        ("create_partition", lambda c: ("g", [], c[1]), SchemeError),
    "rebuild: sealed key cut short":
        ("create_partition", lambda c: ("g", PARTS[0] + ["t"], c[1][:-1]),
         SealingError),
    "rebuild: sealed key of another group":
        ("create_partition", lambda c: ("h", PARTS[0] + ["t"], c[1]),
         SealingError),
}


class TestRefusalLeavesNoTrace:
    """The enclave checks the host's lists before its first rng draw or
    counter increment: a refused call changes nothing observable."""

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_call_changes_nothing(self, group, case):
        name, make_args, error = REFUSALS[case]
        (device, enclave, created), (_, control, _) = _twins(group)
        inside = trusted_view(enclave)
        rng_before = device.rng.getstate()
        counters_before = dict(inside._seal_counters)
        with pytest.raises(error):
            enclave.call(name, *make_args(created))
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

    @pytest.mark.parametrize("params,n", [
        (params, n) for params in ("toy64", "std160") for n in (1, 2, 7)])
    def test_rebuild_runs_no_ladder(self, params, n):
        """The administrator's extension by ``n`` joiners is one rebuild
        around the whole list: no variable-base ladder, the ``C3`` a
        creation over the same list writes, and the current ``gk``."""
        device = SgxDevice(rng=DeterministicRng("batch-add"))
        enclave = IbbeEnclave.load(
            device, {"pairing_group": PairingGroup(preset(params))})
        pk, _ = enclave.call("setup_system", 10)
        blobs, sealed_gk = enclave.call("create_group", "g", [["a", "b"]])
        members = ["a", "b"] + [f"n{i}" for i in range(n)]
        ladders = precomp_registry.snapshot()["ec.precomp.misses"]
        blob = enclave.call("create_partition", "g", members, sealed_gk)
        ladders = precomp_registry.snapshot()["ec.precomp.misses"] - ladders
        assert ladders == 0
        (created,), _ = enclave.call("create_group", "h", [members])
        c3 = ibbe.IbbeCiphertext.split(pk.group, blob.ciphertext)[2]
        assert c3 == ibbe.IbbeCiphertext.split(pk.group,
                                               created.ciphertext)[2]
        assert (_decrypt_blob(pk, enclave, blob, members, members[-1])
                == _decrypt_blob(pk, enclave, blobs[0], ["a", "b"], "a"))

    def test_admin_batch_on_fresh_partitions_matches_single_adds(self):
        """Seven joiners to a full group: two fresh partitions, each one
        ``create_partition`` around all of its joiners.  Every add draws
        a fresh ``k``, so the bytes differ from seven single adds; the
        member lists and the one group key do not."""
        joiners = [f"n{i}" for i in range(7)]
        batched, single = (make_system("fresh-batch", capacity=4)
                           for _ in range(2))
        for system in (batched, single):
            system.admin.create_group("g", ["a", "b", "c", "d"])
        batched.admin.add_users("g", joiners)
        for joiner in joiners:
            single.admin.add_user("g", joiner)
        members = [
            {pid: record.members
             for pid, record in system.admin.group_state("g").records.items()}
            for system in (batched, single)
        ]
        assert members[0] == members[1]
        assert len(members[0]) == 3
        keys = set()
        for system in (batched, single):
            for listed in members[0].values():
                client = system.make_client("g", listed[-1])
                client.sync()
                keys.add(client.current_group_key())
        assert len(keys) == 1


class TestAdminAdd:
    def test_add_rebuilds_only_its_partition(self, monkeypatch):
        """An add to an existing partition reads no stored point and runs
        no ladder, rewrites that partition alone, and leaves every
        member — the joiner too — on the one unchanged group key, which
        a member removed earlier still cannot derive."""
        system = make_system("admin-add", capacity=4, auto_repartition=False)
        admin = system.admin
        admin.create_group("g", [f"u{i}" for i in range(8)])
        admin.remove_user("g", "u1")
        admin.remove_user("g", "u6")

        def current_key(user):
            client = system.make_client("g", user)
            client.sync()
            return client.current_group_key()

        members = admin.members("g")
        gk = {current_key(user) for user in members}
        assert len(gk) == 1
        before = dict(admin.group_state("g").records)
        decodes = []
        real = Point.decode.__func__
        monkeypatch.setattr(
            Point, "decode",
            classmethod(lambda cls, *a: decodes.append(1) or real(cls, *a)))
        ladders = precomp_registry.snapshot()["ec.precomp.misses"]
        admin.add_user("g", "late")
        assert precomp_registry.snapshot()["ec.precomp.misses"] == ladders
        assert decodes == []
        monkeypatch.undo()

        after = admin.group_state("g").records
        touched = admin.group_state("g").table.partition_of("late")
        assert after.keys() == before.keys()
        assert after[touched] != before[touched]
        for pid in before.keys() - {touched}:
            assert after[pid] == before[pid]
        assert {current_key(user) for user in members + ["late"]} == gk
        with pytest.raises(RevokedError):
            current_key("u1")

    def test_add_after_a_failed_removal_commit(self, monkeypatch):
        """A removal seals a fresh key, then its commit fails: the device
        counter is ahead of the stored sealed key.  The next add refuses
        that blob, recovers the records' key — the one it holds — and
        re-seals it, so adds keep working and no key changes."""
        system = make_system("failed-commit", capacity=4)
        admin = system.admin
        admin.create_group("g", ["a", "b", "c"])

        def current_key(user):
            client = system.make_client("g", user)
            client.sync()
            return client.current_group_key()

        gk = current_key("a")

        def down(*_args, **_kwargs):
            raise UnavailableError("store down")

        monkeypatch.setattr(system.cloud, "commit", down)
        with pytest.raises(UnavailableError):
            admin.remove_user("g", "b")
        monkeypatch.undo()

        admin.add_user("g", "d")
        admin.add_user("g", "e")
        assert admin.members("g") == ["a", "b", "c", "d", "e"]
        assert {current_key(u) for u in admin.members("g")} == {gk}

    def test_replayed_sealed_key_stays_refused(self):
        """A sealed key the store puts back from before a removal holds
        another key than the records: the add fails, and no member is
        handed the revoked member's key."""
        system = make_system("replay", capacity=4)
        admin = system.admin
        admin.create_group("g", ["a", "b"])
        client = system.make_client("g", "b")
        client.sync()
        revoked_key = client.current_group_key()
        saved = system.cloud.get(sealed_key_path("g")).data
        admin.remove_user("g", "b")
        system.cloud.put(sealed_key_path("g"), saved)
        admin.cache.drop("g")

        with pytest.raises(EnclaveError, match="rollback detected"):
            admin.add_user("g", "c")
        assert admin.members("g") == ["a"]
        client = system.make_client("g", "a")
        client.sync()
        assert client.current_group_key() != revoked_key


def test_ciphertext_points_decoded(loaded, monkeypatch):
    """An add, a removal and a re-key decompress no stored point: each
    builds its partitions from member lists."""
    _, enclave, _, _ = loaded
    blobs, sealed_gk = enclave.call("create_group", "g", PARTS)
    decodes = []
    real = Point.decode.__func__
    monkeypatch.setattr(
        Point, "decode",
        classmethod(lambda cls, *a: decodes.append(1) or real(cls, *a)))
    enclave.call("create_partition", "g", PARTS[0] + ["t"], sealed_gk)
    enclave.call("remove_user", "g", "b", ["a", "c"], [PARTS[1]])
    enclave.call("rekey_group", "g", [["a", "c"], PARTS[1]])
    assert decodes == []
