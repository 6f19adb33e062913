"""Baseline scheme tests: HE-PKI, HE-IBE, raw IBBE."""

import pytest

from repro import ibbe
from repro.baselines import (
    HeIbeScheme,
    HePkiScheme,
    HybridGroupManager,
    RawIbbeGroupManager,
)
from repro.cloud import CloudStore
from repro.crypto.rng import DeterministicRng
from repro.errors import (
    AccessControlError,
    MembershipError,
    RevokedError,
)

USERS = [f"u{i}" for i in range(6)]


def pki_manager(seed="pki", cloud=None):
    scheme = HePkiScheme(rng=DeterministicRng(f"{seed}-keys"))
    for user in USERS + ["extra", "late"]:
        scheme.register_user(user)
    return HybridGroupManager(scheme, cloud=cloud,
                              rng=DeterministicRng(seed))


class TestHePki:
    def test_create_and_derive(self):
        mgr = pki_manager()
        state = mgr.create_group("g", USERS)
        for user in USERS:
            assert mgr.derive_group_key("g", user) == state.group_key

    def test_add_keeps_gk(self):
        mgr = pki_manager()
        state = mgr.create_group("g", USERS)
        gk = state.group_key
        mgr.add_user("g", "extra")
        assert mgr.derive_group_key("g", "extra") == gk
        assert mgr.derive_group_key("g", "u0") == gk

    def test_remove_rekeys(self):
        mgr = pki_manager()
        gk_before = mgr.create_group("g", USERS).group_key
        mgr.remove_user("g", "u3")
        gk_after = mgr.derive_group_key("g", "u0")
        assert gk_after != gk_before
        with pytest.raises(RevokedError):
            mgr.derive_group_key("g", "u3")

    def test_membership_errors(self):
        mgr = pki_manager()
        mgr.create_group("g", USERS)
        with pytest.raises(MembershipError):
            mgr.add_user("g", "u0")
        with pytest.raises(MembershipError):
            mgr.remove_user("g", "stranger")
        with pytest.raises(AccessControlError):
            mgr.add_user("ghost", "x")
        with pytest.raises(AccessControlError):
            mgr.create_group("g", ["x"])

    def test_duplicate_members_rejected(self):
        mgr = pki_manager()
        with pytest.raises(MembershipError):
            mgr.create_group("g", ["u0", "u0"])

    def test_unregistered_user_rejected(self):
        mgr = pki_manager()
        with pytest.raises(MembershipError):
            mgr.create_group("g", ["nokey"])

    def test_footprint_linear(self):
        mgr = pki_manager()
        mgr.create_group("g", USERS[:2])
        small = mgr.crypto_footprint("g")
        mgr2 = pki_manager("pki2")
        mgr2.create_group("g", USERS)
        assert mgr2.crypto_footprint("g") == small * len(USERS) // 2

    def test_cloud_push(self):
        cloud = CloudStore()
        mgr = pki_manager(cloud=cloud)
        mgr.create_group("g", USERS)
        assert list(cloud.get_many(["/g/he-metadata"])) == ["/g/he-metadata"]
        from repro.baselines.hybrid import HybridGroupState
        decoded = HybridGroupState.decode(cloud.get("/g/he-metadata").data)
        assert set(decoded.wrapped_keys) == set(USERS)

    def test_manager_sees_gk(self):
        """The documented HE weakness: no zero knowledge for the admin."""
        mgr = pki_manager()
        state = mgr.create_group("g", USERS)
        assert state.group_key  # plaintext gk held by the manager


class TestHeIbe:
    @pytest.fixture()
    def manager(self, group):
        scheme = HeIbeScheme(group, rng=DeterministicRng("ibe-keys"))
        for user in USERS:
            scheme.register_user(user)
        return HybridGroupManager(scheme, rng=DeterministicRng("ibe-mgr"))

    def test_semantics_match_pki(self, manager):
        state = manager.create_group("g", USERS)
        gk_before = bytes(state.group_key)
        assert manager.derive_group_key("g", "u1") == gk_before
        manager.remove_user("g", "u1")
        with pytest.raises(RevokedError):
            manager.derive_group_key("g", "u1")
        assert manager.derive_group_key("g", "u0") != gk_before

    def test_encrypt_without_registration(self, group):
        """The IBE selling point: no PKI lookup before encrypting."""
        scheme = HeIbeScheme(group, rng=DeterministicRng("ibe2"))
        ct = scheme.encrypt_for("unregistered", b"data")
        scheme.register_user("unregistered")
        assert scheme.decrypt_as("unregistered", ct) == b"data"


class TestRawIbbe:
    @pytest.fixture()
    def setup(self, ibbe_system, user_keys):
        msk, pk = ibbe_system
        mgr = RawIbbeGroupManager(pk, rng=DeterministicRng("raw"))
        return msk, pk, mgr

    def test_create_and_derive(self, setup, user_keys):
        msk, pk, mgr = setup
        members = [f"user{i}" for i in range(4)]
        mgr.create_group("g", members)
        gk = mgr.derive_group_key("g", "user0", user_keys["user0"])
        assert gk == mgr.derive_group_key("g", "user3", user_keys["user3"])

    def test_footprint_constant(self, setup):
        msk, pk, mgr = setup
        mgr.create_group("small", ["user0"])
        mgr.create_group("large", [f"user{i}" for i in range(8)])
        assert mgr.crypto_footprint("small") == mgr.crypto_footprint("large")

    def test_add_rekeys_metadata(self, setup, user_keys):
        msk, pk, mgr = setup
        mgr.create_group("g", ["user0", "user1"])
        mgr.add_user("g", "newcomer")
        gk = mgr.derive_group_key("g", "newcomer", user_keys["newcomer"])
        assert gk == mgr.derive_group_key("g", "user0", user_keys["user0"])

    def test_remove_excludes(self, setup, user_keys):
        msk, pk, mgr = setup
        mgr.create_group("g", ["user0", "user1", "user2"])
        mgr.remove_user("g", "user1")
        with pytest.raises(RevokedError):
            mgr.derive_group_key("g", "user1", user_keys["user1"])
        mgr.derive_group_key("g", "user0", user_keys["user0"])

    def test_remove_last_member_deletes_group(self, setup):
        msk, pk, mgr = setup
        cloud = CloudStore()
        mgr.cloud = cloud
        mgr.create_group("g", ["user0"])
        mgr.remove_user("g", "user0")
        with pytest.raises(AccessControlError):
            mgr.members("g")
        assert cloud.get_many(["/g/ibbe-metadata"]) == {}
