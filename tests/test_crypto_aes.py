"""AES block cipher against FIPS-197 vectors, plus properties."""

import pytest

from repro.crypto.aes import AES
from repro.errors import CryptoError

# FIPS-197 Appendix C example vectors.
_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),           # AES-128 (C.1)
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),           # AES-192 (C.2)
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),           # AES-256 (C.3)
]


class TestFipsVectors:
    @pytest.mark.parametrize("key_hex,ct_hex", _VECTORS)
    def test_encrypt(self, key_hex, ct_hex):
        aes = AES(bytes.fromhex(key_hex))
        assert aes.encrypt_block(_PLAIN).hex() == ct_hex

    def test_zero_key_vector(self):
        # Classic known-answer: AES-128 of zero block under zero key.
        assert AES(bytes(16)).encrypt_block(bytes(16)).hex() == (
            "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )


class TestProperties:
    def test_key_sensitivity(self):
        block = bytes(16)
        a = AES(bytes(32)).encrypt_block(block)
        b = AES(bytes(31) + b"\x01").encrypt_block(block)
        assert a != b


class TestErrors:
    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            AES(bytes(15))

    def test_bad_block_length_encrypt(self):
        with pytest.raises(CryptoError):
            AES(bytes(16)).encrypt_block(bytes(15))
