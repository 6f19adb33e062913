"""ECDSA and ECIES tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa, ecies
from repro.crypto.rng import DeterministicRng
from repro.ec import P256
from repro.errors import AuthenticationError, CryptoError


@pytest.fixture(scope="module")
def ecdsa_key():
    return ecdsa.generate_keypair(DeterministicRng("ecdsa-fixture"))


@pytest.fixture(scope="module")
def ecies_key():
    return ecies.generate_keypair(DeterministicRng("ecies-fixture"))


class TestEcdsa:
    def test_sign_verify(self, ecdsa_key):
        sig = ecdsa_key.sign(b"membership op")
        ecdsa_key.public_key().verify(b"membership op", sig)

    def test_deterministic_signatures(self, ecdsa_key):
        assert ecdsa_key.sign(b"m") == ecdsa_key.sign(b"m")

    def test_message_tamper(self, ecdsa_key):
        sig = ecdsa_key.sign(b"m")
        with pytest.raises(AuthenticationError):
            ecdsa_key.public_key().verify(b"m2", sig)

    def test_signature_tamper(self, ecdsa_key):
        sig = bytearray(ecdsa_key.sign(b"m"))
        sig[10] ^= 1
        assert not ecdsa_key.public_key().is_valid(b"m", bytes(sig))

    def test_cross_key_rejected(self, ecdsa_key):
        other = ecdsa.generate_keypair(DeterministicRng("other-ecdsa"))
        sig = ecdsa_key.sign(b"m")
        assert not other.public_key().is_valid(b"m", sig)

    def test_malformed_signature(self, ecdsa_key):
        with pytest.raises(AuthenticationError):
            ecdsa_key.public_key().verify(b"m", b"short")
        with pytest.raises(AuthenticationError):
            ecdsa_key.public_key().verify(b"m", bytes(64))

    def test_public_key_roundtrip(self, ecdsa_key):
        encoded = ecdsa_key.public_key().encode()
        decoded = ecdsa.EcdsaPublicKey.decode(encoded)
        decoded.verify(b"m", ecdsa_key.sign(b"m"))

    @given(st.binary(max_size=64))
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_messages(self, message):
        key = ecdsa.generate_keypair(DeterministicRng("hyp"))
        key.public_key().verify(message, key.sign(message))


class TestEcdsaPrecomputation:
    """A key marked long-lived verifies from a fixed-base table; what it
    accepts and rejects, and everything else about it, is unchanged."""

    @pytest.fixture()
    def keys(self, ecdsa_key):
        plain = ecdsa_key.public_key()
        tabled = ecdsa.EcdsaPublicKey(plain.point).enable_precomputation()
        return plain, tabled

    @staticmethod
    def verdict(key, message, signature):
        try:
            key.verify(message, signature)
        except AuthenticationError as exc:
            return str(exc)
        return "ok"

    def test_table_is_built_by_the_first_verify_after_opting_in(self, keys,
                                                                ecdsa_key):
        from repro.ec import precomp_registry
        plain, tabled = keys
        signature = ecdsa_key.sign(b"m")
        P256.generator_table()

        def built():
            return precomp_registry.snapshot()["ec.precomp.tables"]

        before = built()
        assert tabled._table is None
        plain.verify(b"m", signature)
        assert built() == before and plain._table is None
        tabled.verify(b"m", signature)
        tabled.verify(b"m", signature)
        assert built() == before + 1 and tabled._table is not None

    def test_same_verdicts_as_the_untabled_key(self, keys, ecdsa_key):
        plain, tabled = keys
        n = P256.order
        message = b"membership op"
        signature = ecdsa_key.sign(message)
        r, s = signature[:32], signature[32:]
        other = ecdsa.generate_keypair(DeterministicRng("other-ecdsa"))
        cases = [(message, signature), (message, other.sign(message)),
                 (message, signature[:-1]), (message, signature + b"\0"),
                 (message, b"")]
        cases += [(bytes([message[0] ^ (1 << bit)]) + message[1:], signature)
                  for bit in range(8)]
        for value in (0, n, n - 1):
            edge = value.to_bytes(32, "big")
            cases += [(message, edge + s), (message, r + edge),
                      (message, edge + edge)]
        verdicts = [self.verdict(plain, *case) for case in cases]
        assert verdicts == [self.verdict(tabled, *case) for case in cases]
        assert verdicts[0] == "ok" and verdicts.count("ok") == 1

    @given(st.binary(max_size=64), st.integers(0, 511))
    @settings(max_examples=10, deadline=None)
    def test_valid_and_bit_flipped_signatures_agree(self, message, bit):
        key = ecdsa.generate_keypair(DeterministicRng("hyp"))
        plain = key.public_key()
        tabled = key.public_key().enable_precomputation()
        signature = bytearray(key.sign(message))
        assert self.verdict(tabled, message, bytes(signature)) == "ok"
        signature[bit // 8] ^= 1 << (bit % 8)
        assert (self.verdict(tabled, message, bytes(signature))
                == self.verdict(plain, message, bytes(signature)) != "ok")

    def test_identity_key_agrees(self, ecdsa_key):
        """The point at infinity decodes as a key; tabled or not it
        reduces the check to ``x(u1·G) ≡ r``."""
        signature = ecdsa_key.sign(b"m")
        plain = ecdsa.EcdsaPublicKey.decode(b"\x00")
        tabled = ecdsa.EcdsaPublicKey.decode(b"\x00").enable_precomputation()
        assert (self.verdict(plain, b"m", signature)
                == self.verdict(tabled, b"m", signature) != "ok")

    def test_identity_of_a_key_ignores_its_table(self, keys, ecdsa_key):
        import pickle
        plain, tabled = keys
        tabled.verify(b"m", ecdsa_key.sign(b"m"))
        assert tabled._table is not None
        assert tabled == plain and hash(tabled) == hash(plain)
        assert len({tabled, plain}) == 1
        assert tabled.encode() == plain.encode()
        assert repr(tabled) == repr(plain)
        copy = pickle.loads(pickle.dumps(tabled))
        assert copy == tabled and copy._table is None
        assert len(pickle.dumps(tabled)) == len(pickle.dumps(plain))
        assert ecdsa.EcdsaPublicKey.decode(tabled.encode())._table is None


class TestEcies:
    def test_roundtrip(self, ecies_key, rng):
        ct = ecies_key.public_key().encrypt(b"group key bytes", rng)
        assert ecies_key.decrypt(ct) == b"group key bytes"

    def test_aad_binding(self, ecies_key, rng):
        ct = ecies_key.public_key().encrypt(b"m", rng, aad=b"ctx")
        assert ecies_key.decrypt(ct, aad=b"ctx") == b"m"
        with pytest.raises(AuthenticationError):
            ecies_key.decrypt(ct, aad=b"other")

    def test_wrong_key(self, ecies_key, rng):
        other = ecies.generate_keypair(DeterministicRng("other-ecies"))
        ct = ecies_key.public_key().encrypt(b"m", rng)
        with pytest.raises(AuthenticationError):
            other.decrypt(ct)

    def test_tamper(self, ecies_key, rng):
        ct = bytearray(ecies_key.public_key().encrypt(b"m", rng))
        ct[-1] ^= 1
        with pytest.raises(AuthenticationError):
            ecies_key.decrypt(bytes(ct))

    def test_too_short(self, ecies_key):
        with pytest.raises(CryptoError):
            ecies_key.decrypt(bytes(10))

    def test_overhead_constant(self, ecies_key, rng):
        overhead = ecies.ciphertext_overhead()
        for size in (0, 1, 33, 100):
            ct = ecies_key.public_key().encrypt(bytes(size), rng)
            assert len(ct) == size + overhead

    def test_public_key_roundtrip(self, ecies_key, rng):
        decoded = ecies.EciesPublicKey.decode(
            ecies_key.public_key().encode()
        )
        assert ecies_key.decrypt(decoded.encrypt(b"m", rng)) == b"m"
