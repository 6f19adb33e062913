"""Zero-knowledge and threat-model tests (paper §II).

The honest-but-curious adversaries are (a) the administrator, (b) the cloud
storage, and (c) coalitions of either with revoked users.  These tests run
the real system code paths and assert that none of them can reach a
plaintext group key.
"""

import pytest

from repro import ibbe
from repro.crypto.envelope import unwrap_group_key
from repro.errors import ReproError, RevokedError
from tests.conftest import make_system

MEMBERS = [f"user{i}" for i in range(8)]


@pytest.fixture()
def world():
    system = make_system("zk", capacity=4)
    system.admin.create_group("team", MEMBERS)
    client = system.make_client("team", "user0")
    client.sync()
    return system, client, client.current_group_key()


def _all_cloud_bytes(system):
    return b"".join(obj.data for obj in system.cloud.adversary_view())


def _all_admin_visible_bytes(system, group_id):
    """Everything the untrusted administrator process can inspect."""
    state = system.admin.group_state(group_id)
    chunks = [state.sealed_group_key]
    for record in state.records.values():
        chunks.append(record.ciphertext)
        chunks.append(record.envelope)
        chunks.extend(m.encode() for m in record.members)
    return b"".join(chunks)


class TestCuriousCloud:
    def test_gk_never_stored_in_plaintext(self, world):
        system, _, gk = world
        assert gk not in _all_cloud_bytes(system)

    def test_gk_absent_after_churn(self, world):
        system, client, _ = world
        system.admin.add_user("team", "x")
        system.admin.remove_user("team", "user3")
        system.admin.rekey("team")
        client.sync()
        gk = client.current_group_key()
        assert gk not in _all_cloud_bytes(system)

    def test_membership_is_visible(self, world):
        """The model explicitly does NOT hide identities (§II) — verify the
        trade-off is as documented, not accidentally stronger."""
        system, _, _ = world
        assert b"user0" in _all_cloud_bytes(system)


class TestCuriousAdministrator:
    def test_admin_state_has_no_gk(self, world):
        system, _, gk = world
        assert gk not in _all_admin_visible_bytes(system, "team")

    def test_sealed_gk_opaque_to_admin(self, world):
        system, _, gk = world
        sealed = system.admin.group_state("team").sealed_group_key
        assert gk not in sealed

    def test_enclave_leak_scanner_active(self, world):
        """The enclave tracks the live gk as secret; a hypothetical leaky
        ecall would be caught (see test_sgx_enclave for the mechanism).

        White-box assertion standing inside the trust boundary, hence the
        ``trusted_view`` escape hatch."""
        from repro.sgx.enclave import trusted_view
        system, _, _ = world
        assert trusted_view(system.enclave)._secret_values  # gk & msk

    def test_msk_never_in_ecall_results(self, world):
        from repro.sgx.enclave import trusted_view
        system, _, _ = world
        gamma_bytes = trusted_view(system.enclave)._msk.gamma.to_bytes(
            32, "big"
        )
        state = system.admin.group_state("team")
        for record in state.records.values():
            assert gamma_bytes not in record.ciphertext
        assert gamma_bytes not in state.sealed_group_key


class TestRevokedCoalition:
    def test_revoked_user_plus_cloud_cannot_recover_new_gk(self, world):
        system, client, gk_old = world
        victim_key = system.user_key("user5")
        system.admin.remove_user("team", "user5")
        client.sync()
        gk_new = client.current_group_key()

        # The coalition: victim's key + full cloud contents.
        pk = system.public_key
        from repro.core.metadata import PartitionRecord
        recovered = []
        for obj in system.cloud.adversary_view():
            if "/p" not in obj.path:
                continue
            record = PartitionRecord.verify_and_decode(
                obj.data, system.admin.verification_key
            )
            ct = ibbe.IbbeCiphertext.decode(pk.group, record.ciphertext)
            # Try decrypting with the revoked key against every claimed set
            # (including lying about membership).
            for claimed in (list(record.members),
                            list(record.members) + ["user5"]):
                if "user5" not in claimed:
                    continue
                try:
                    bk = ibbe.decrypt(pk, victim_key, claimed, ct)
                    gk = unwrap_group_key(bk.digest(), record.envelope,
                                          aad=b"team")
                    recovered.append(gk)
                except ReproError:
                    pass
        assert gk_new not in recovered

    def test_pre_revocation_metadata_useless_after_rekey(self, world):
        """Old envelopes only ever yield the old gk (the paper accepts
        that joiners/leavers may know keys of epochs they belonged to)."""
        system, client, gk_old = world
        old_records = {
            pid: record
            for pid, record in
            system.admin.group_state("team").records.items()
        }
        victim_key = system.user_key("user5")
        system.admin.remove_user("team", "user5")
        client.sync()
        gk_new = client.current_group_key()
        pid = next(
            pid for pid, r in old_records.items() if "user5" in r.members
        )
        record = old_records[pid]
        ct = ibbe.IbbeCiphertext.decode(system.public_key.group,
                                        record.ciphertext)
        bk = ibbe.decrypt(system.public_key, victim_key,
                          list(record.members), ct)
        gk = unwrap_group_key(bk.digest(), record.envelope, aad=b"team")
        assert gk == gk_old
        assert gk != gk_new


class TestMultiUserCollusion:
    def test_coalition_of_revoked_users_fails(self, world):
        """Full collusion resistance: several revoked users pooling their
        keys (and lying about set membership) cannot recover the new key."""
        system, client, _ = world
        coalition = ["user3", "user5", "user6"]
        keys = {u: system.user_key(u) for u in coalition}
        for user in coalition:
            system.admin.remove_user("team", user)
        client.sync()
        gk_new = client.current_group_key()

        pk = system.public_key
        from repro.core.metadata import PartitionRecord
        attempts = []
        for obj in system.cloud.adversary_view():
            if "/p" not in obj.path:
                continue
            record = PartitionRecord.verify_and_decode(
                obj.data, system.admin.verification_key
            )
            ct = ibbe.IbbeCiphertext.decode(pk.group, record.ciphertext)
            for user in coalition:
                for claimed in (
                    list(record.members) + [user],
                    list(record.members) + coalition,
                ):
                    try:
                        bk = ibbe.decrypt(pk, keys[user], claimed, ct)
                        gk = unwrap_group_key(bk.digest(), record.envelope,
                                              aad=b"team")
                        attempts.append(gk)
                    except ReproError:
                        pass
        assert gk_new not in attempts

    def test_combined_key_elements_useless(self, world):
        """Algebraic combination of two revoked keys (product of the G1
        elements) is not a valid key for any identity."""
        system, client, _ = world
        k5 = system.user_key("user5")
        k6 = system.user_key("user6")
        system.admin.remove_user("team", "user5")
        system.admin.remove_user("team", "user6")
        client.sync()
        gk_new = client.current_group_key()

        forged_element = k5.element * k6.element
        pk = system.public_key
        state = system.admin.group_state("team")
        record = next(iter(state.records.values()))
        ct = ibbe.IbbeCiphertext.decode(pk.group, record.ciphertext)
        for claimed_identity in ("user5", "user6", "user0"):
            forged = ibbe.IbbeUserKey(claimed_identity, forged_element)
            try:
                bk = ibbe.decrypt(
                    pk, forged,
                    list(record.members) + [claimed_identity]
                    if claimed_identity not in record.members
                    else list(record.members),
                    ct,
                )
                gk = unwrap_group_key(bk.digest(), record.envelope,
                                      aad=b"team")
                assert gk != gk_new
            except ReproError:
                pass


class TestNeverMembers:
    def test_outsider_with_extracted_key_fails_everywhere(self, world):
        system, _, _ = world
        outsider = system.make_client("team", "eve")
        outsider.sync()
        with pytest.raises(RevokedError):
            outsider.current_group_key()

    def test_wrong_group_key_isolated(self, world):
        """Keys derive per group: a member of one group learns nothing
        about another group's key."""
        system, client, gk_team = world
        system.admin.create_group("other", ["solo"])
        solo = system.make_client("other", "solo")
        solo.sync()
        assert solo.current_group_key() != gk_team
