"""Unit tests for the Delerablée IBBE scheme and the IBBE-SGX fast paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ibbe
from repro.crypto.rng import DeterministicRng
from repro.errors import PairingError, ParameterError, SchemeError
from repro.pairing import G1Element
from tests.pairing_oracle import off_subgroup_point

USERS = [f"user{i}" for i in range(8)]


class TestSetupAndExtract:
    def test_public_key_size_linear_in_m(self, group, rng):
        _, pk4 = ibbe.setup(group, 4, rng)
        _, pk8 = ibbe.setup(group, 8, rng)
        assert len(pk8.h_powers) == 9
        assert pk8.size_bytes() > pk4.size_bytes()

    def test_invalid_m(self, group, rng):
        with pytest.raises(ParameterError):
            ibbe.setup(group, 0, rng)

    def test_extract_deterministic(self, ibbe_system):
        msk, pk = ibbe_system
        a = ibbe.extract(msk, pk, "alice")
        b = ibbe.extract(msk, pk, "alice")
        assert a.element == b.element

    def test_extract_verifies_against_pairing(self, ibbe_system, group):
        """e(USK_u, h^γ · h^H(u)) == e(g, h) — the defining equation."""
        msk, pk = ibbe_system
        usk = ibbe.extract(msk, pk, "alice")
        h_u = pk.hash_identity("alice")
        rhs = pk.h_powers[1] * (pk.h_powers[0] ** h_u)
        assert group.pair(usk.element, rhs) == pk.v


class TestEncryptionPaths:
    def test_pk_and_msk_paths_agree_on_c3(self, ibbe_system, rng):
        msk, pk = ibbe_system
        _, ct_pk = ibbe.encrypt_pk(pk, USERS, rng)
        _, ct_msk = ibbe.encrypt_msk(msk, pk, USERS, rng)
        assert ct_pk.c3 == ct_msk.c3

    def test_all_members_decrypt_pk_path(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_pk(pk, USERS, rng)
        for user in USERS:
            assert ibbe.decrypt(pk, user_keys[user], USERS, ct) == bk

    def test_all_members_decrypt_msk_path(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS, rng)
        for user in USERS:
            assert ibbe.decrypt(pk, user_keys[user], USERS, ct) == bk

    def test_singleton_set(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, ["user0"], rng)
        assert ibbe.decrypt(pk, user_keys["user0"], ["user0"], ct) == bk

    def test_nonmember_rejected(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS[:4], rng)
        with pytest.raises(SchemeError):
            ibbe.decrypt(pk, user_keys["mallory"], USERS[:4], ct)

    def test_nonmember_with_padded_set_gets_wrong_key(self, ibbe_system,
                                                      user_keys, rng):
        """Mallory lying about the broadcast set cannot recover bk."""
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS[:4], rng)
        forged_set = USERS[:4] + ["mallory"]
        derived = ibbe.decrypt(pk, user_keys["mallory"], forged_set, ct)
        assert derived != bk

    def test_empty_set_rejected(self, ibbe_system, rng):
        msk, pk = ibbe_system
        with pytest.raises(SchemeError):
            ibbe.encrypt_msk(msk, pk, [], rng)
        with pytest.raises(SchemeError):
            ibbe.encrypt_pk(pk, [], rng)

    def test_oversized_set_rejected(self, ibbe_system, rng):
        msk, pk = ibbe_system
        too_many = [f"x{i}" for i in range(pk.m + 1)]
        with pytest.raises(ParameterError):
            ibbe.encrypt_pk(pk, too_many, rng)
        with pytest.raises(ParameterError):
            ibbe.encrypt_msk(msk, pk, too_many, rng)

    def test_duplicate_identities_rejected(self, ibbe_system, rng):
        msk, pk = ibbe_system
        with pytest.raises(SchemeError):
            ibbe.encrypt_msk(msk, pk, ["a", "a"], rng)

    def test_broadcast_keys_are_fresh(self, ibbe_system, rng):
        msk, pk = ibbe_system
        bk1, _ = ibbe.encrypt_msk(msk, pk, USERS, rng)
        bk2, _ = ibbe.encrypt_msk(msk, pk, USERS, rng)
        assert bk1 != bk2


class TestDecryptRejectionSet:
    """The Miller ladder used to run over ``C1`` and ``USK``, rejecting
    either outside the order-q subgroup; it now runs over ``h_pi`` and
    ``USK``, with an explicit order test on ``C1``.  ``C2`` is, as
    before, only on-curve-checked (by decoding)."""

    @pytest.fixture()
    def case(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS, rng)
        usk = user_keys["user0"]
        hint = ibbe.prepare_decryption(pk, usk, USERS)
        assert ibbe.decrypt_with_hint(pk, usk, hint, ct) == bk
        return pk, usk, hint, ct

    @pytest.fixture()
    def off_subgroup(self, group):
        return G1Element(
            group, off_subgroup_point(group.curve, group.q, "ibbe-stray"))

    def test_off_subgroup_c1_rejected(self, case, off_subgroup):
        pk, usk, hint, ct = case
        with pytest.raises(PairingError):
            ibbe.decrypt_with_hint(
                pk, usk, hint, ibbe.IbbeHeader(c1=off_subgroup, c2=ct.c2))

    def test_off_subgroup_usk_rejected(self, case, off_subgroup):
        pk, usk, hint, ct = case
        forged = ibbe.IbbeUserKey(identity=usk.identity, element=off_subgroup)
        with pytest.raises(PairingError):
            ibbe.decrypt_with_hint(pk, forged, hint, ct)

    def test_off_subgroup_h_pi_rejected(self, case, off_subgroup):
        pk, usk, hint, ct = case
        forged = ibbe.DecryptionHint(
            identity=hint.identity,
            member_fingerprint=hint.member_fingerprint,
            h_pi=off_subgroup, delta_inverse=hint.delta_inverse)
        with pytest.raises(PairingError):
            ibbe.decrypt_with_hint(pk, usk, forged, ct)

    def test_header_alone_decrypts(self, case, group):
        """Decryption reads (C1, C2) only: the header decoded from the
        wire gives the same key as the full ciphertext."""
        pk, usk, hint, ct = case
        header = ibbe.IbbeCiphertext.decode_header(group, ct.encode())
        assert header == ibbe.IbbeHeader(c1=ct.c1, c2=ct.c2)
        assert ibbe.decrypt_with_hint(pk, usk, hint, header) == (
            ibbe.decrypt_with_hint(pk, usk, hint, ct))


class TestMembershipUpdates:
    def test_add_keeps_bk(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS[:4], rng)
        ct2 = ibbe.add_user_msk(msk, pk, ct, "newcomer")
        members = USERS[:4] + ["newcomer"]
        assert ibbe.decrypt(pk, user_keys["newcomer"], members, ct2) == bk
        assert ibbe.decrypt(pk, user_keys["user0"], members, ct2) == bk

    def test_add_matches_fresh_encrypt_structure(self, ibbe_system, rng):
        """C3 after add equals C3 of a fresh encryption of the new set."""
        msk, pk = ibbe_system
        _, ct = ibbe.encrypt_msk(msk, pk, USERS[:4], rng)
        ct2 = ibbe.add_user_msk(msk, pk, ct, "newcomer")
        _, fresh = ibbe.encrypt_msk(msk, pk, USERS[:4] + ["newcomer"], rng)
        assert ct2.c3 == fresh.c3

    def test_remove_changes_bk_and_excludes(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS[:5], rng)
        bk2, ct2 = ibbe.remove_user_msk(msk, pk, ct, "user2", rng)
        remaining = [u for u in USERS[:5] if u != "user2"]
        assert bk2 != bk
        assert ibbe.decrypt(pk, user_keys["user0"], remaining, ct2) == bk2
        # The revoked user, lying about the set, still fails.
        derived = ibbe.decrypt(pk, user_keys["user2"],
                               remaining + ["user2"], ct2)
        assert derived != bk2

    def test_remove_matches_fresh_c3(self, ibbe_system, rng):
        msk, pk = ibbe_system
        _, ct = ibbe.encrypt_msk(msk, pk, USERS[:5], rng)
        _, ct2 = ibbe.remove_user_msk(msk, pk, ct, "user2", rng)
        _, fresh = ibbe.encrypt_msk(
            msk, pk, [u for u in USERS[:5] if u != "user2"], rng
        )
        assert ct2.c3 == fresh.c3

    def test_rekey_preserves_membership(self, ibbe_system, user_keys, rng):
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS[:4], rng)
        bk2, ct2 = ibbe.rekey(pk, ct, rng)
        assert bk2 != bk
        assert ct2.c3 == ct.c3
        for user in USERS[:4]:
            assert ibbe.decrypt(pk, user_keys[user], USERS[:4], ct2) == bk2

    def test_old_ciphertext_invalid_after_remove(self, ibbe_system,
                                                 user_keys, rng):
        """Forward secrecy of the broadcast key: the old ct still decrypts
        to the OLD bk only — the new bk is unreachable from it."""
        msk, pk = ibbe_system
        bk, ct = ibbe.encrypt_msk(msk, pk, USERS[:4], rng)
        bk2, _ = ibbe.remove_user_msk(msk, pk, ct, "user1", rng)
        old = ibbe.decrypt(pk, user_keys["user1"], USERS[:4], ct)
        assert old == bk and old != bk2


class TestHintUpdate:
    """:func:`ibbe.update_decryption` against the from-scratch values."""

    ME = "me"
    POOL = [f"p{i}" for i in range(16)]
    BOUND = 12

    @pytest.fixture(scope="class")
    def world(self, group):
        rng = DeterministicRng("hint-update")
        msk, pk = ibbe.setup(group, m=self.BOUND, rng=rng)

        def encrypt(members):
            return ibbe.encrypt_msk(msk, pk, members, rng)

        return pk, ibbe.extract(msk, pk, self.ME), encrypt

    def step(self, world, hint, old_ct, members):
        """Update ``hint`` to ``members``; everything it returns must
        equal what the quadratic path computes, and must decrypt."""
        pk, usk, encrypt = world
        bk, ct = encrypt(members)
        updated = ibbe.update_decryption(
            pk, hint, members, old_ct.c3.encode(), ct.c3.encode())
        fresh = ibbe.prepare_decryption_public(pk, self.ME, members)
        assert fresh.witness is None
        assert updated == ibbe.DecryptionHint(
            self.ME, tuple(members), fresh.h_pi, fresh.delta_inverse,
            ibbe.decryption_witness(pk, self.ME, members))
        assert ibbe.decrypt_with_hint(pk, usk, updated, ct) == bk
        return updated, ct

    def start(self, world, members):
        pk, _, encrypt = world
        return (ibbe.prepare_decryption_public(pk, self.ME, members),
                encrypt(members)[1])

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(1, 12),
           moves=st.lists(st.integers(0, 2 ** 16), max_size=40))
    def test_single_changes_track_the_quadratic_path(self, world, size,
                                                     moves):
        members = [self.ME] + self.POOL[:size - 1]
        hint, ct = self.start(world, members)
        for move in moves:
            outside = [u for u in self.POOL if u not in members]
            grow = len(members) == 1 or (move % 2 and
                                         len(members) < self.BOUND)
            if grow:
                members = members + [outside[(move // 2) % len(outside)]]
            else:
                # Never the hint's owner; any position, so order moves.
                members = list(members)
                del members[1 + (move // 2) % (len(members) - 1)]
            hint, ct = self.step(world, hint, ct, members)

    def test_one_add_and_one_remove_compose(self, world):
        hint, ct = self.start(world, [self.ME, "p0", "p1", "p2"])
        self.step(world, hint, ct, ["p3", "p2", self.ME, "p0"])

    def test_reordering_alone_costs_nothing(self, world, monkeypatch):
        hint, ct = self.start(world, [self.ME, "p0", "p1"])
        monkeypatch.setattr(type(world[0].group), "multi_mul_g1", None)
        c3 = ct.c3.encode()
        members = ("p1", self.ME, "p0")
        assert ibbe.update_decryption(world[0], hint, members, c3, c3) \
            == ibbe.DecryptionHint(self.ME, members, hint.h_pi,
                                   hint.delta_inverse)

    def test_singleton_edges(self, world):
        pk = world[0]
        hint, ct = self.start(world, [self.ME, "p0"])
        alone, ct = self.step(world, hint, ct, [self.ME])
        assert alone.h_pi.is_identity() and alone.witness == pk.h
        assert alone.delta_inverse == 1
        self.step(world, alone, ct, [self.ME, "p1"])

    def test_witness_is_carried_not_rebuilt(self, world, monkeypatch):
        hint, ct = self.start(world, [self.ME, "p0", "p1"])
        warm, ct = self.step(world, hint, ct, [self.ME, "p0"])
        monkeypatch.setattr(type(world[0].group), "multi_mul_g1", None)
        pk, _, encrypt = world
        members = [self.ME, "p0", "p2"]
        grown = ibbe.update_decryption(pk, warm, members, ct.c3.encode(),
                                       encrypt(members)[1].c3.encode())
        assert grown.witness is not None and grown.witness != warm.witness

    @pytest.mark.parametrize("members", [
        ["me", "p0", "p1", "p2", "p3"],     # two adds
        ["me"],                             # two removes
        ["me", "p0", "p1", "p1"],           # a duplicate
        ["p0", "p1"],                       # the owner removed
        ["p0", "p1", "p2"],                 # ... and replaced
    ])
    def test_not_applicable(self, world, members):
        """Above all for the owner's own removal: ``H_r − H_i = 0`` has
        no inverse — a revoked member cannot follow the group."""
        hint, ct = self.start(world, [self.ME, "p0", "p1"])
        c3 = ct.c3.encode()
        assert ibbe.update_decryption(world[0], hint, members, c3, c3) is None

    def test_not_applicable_where_the_quadratic_path_refuses(self, world):
        """One identity past ``m`` others: both paths say no."""
        pk = world[0]
        members = [self.ME] + self.POOL[:self.BOUND]
        hint = ibbe.prepare_decryption_public(pk, self.ME, members)
        c3 = pk.h.encode()
        assert ibbe.update_decryption(pk, hint, members + ["p15"],
                                      c3, c3) is None
        with pytest.raises(ParameterError):
            ibbe.prepare_decryption_public(pk, self.ME, members + ["p15"])


class TestCiphertextSerialization:
    def test_roundtrip(self, ibbe_system, rng, group):
        msk, pk = ibbe_system
        _, ct = ibbe.encrypt_msk(msk, pk, USERS, rng)
        decoded = ibbe.IbbeCiphertext.decode(group, ct.encode())
        assert decoded == ct

    def test_constant_size(self, ibbe_system, rng):
        """The paper's headline metadata property (Fig. 2b)."""
        msk, pk = ibbe_system
        _, small = ibbe.encrypt_msk(msk, pk, USERS[:1], rng)
        _, large = ibbe.encrypt_msk(msk, pk, USERS, rng)
        assert small.size_bytes() == large.size_bytes()

    def test_malformed_rejected(self, group):
        with pytest.raises(SchemeError):
            ibbe.IbbeCiphertext.decode(group, b"nonsense")
