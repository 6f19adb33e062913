"""AES block cipher (FIPS-197) — AES-128/192/256.

From-scratch table-based implementation.  The paper's enclave uses the
AES-256 implementation from Intel's SGX-SSL port of OpenSSL because the SGX
SDK caps out at AES-128; we likewise default to 256-bit keys everywhere the
group key is enveloped.

Only the raw block transform lives here; modes of operation are in
:mod:`repro.crypto.modes`.
"""

from __future__ import annotations

from typing import List

from repro.errors import CryptoError

# -- S-box construction (computed, not pasted, to keep the source auditable) --


def _build_sbox() -> bytes:
    # Multiplicative inverse in GF(2^8) via exp/log tables over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 in GF(2^8) with the AES polynomial 0x11B
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation.
        res = 0
        for bit in range(8):
            res |= (
                ((inv >> bit) ^ (inv >> ((bit + 4) % 8))
                 ^ (inv >> ((bit + 5) % 8)) ^ (inv >> ((bit + 6) % 8))
                 ^ (inv >> ((bit + 7) % 8)) ^ (0x63 >> bit)) & 1
            ) << bit
        sbox[value] = res
    return bytes(sbox)


_SBOX = _build_sbox()


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed T-tables for the forward rounds (SubBytes+ShiftRows+MixColumns).
_T0 = []
_T1 = []
_T2 = []
_T3 = []
for _s in _SBOX:
    _t = (_mul(_s, 2) << 24) | (_s << 16) | (_s << 8) | _mul(_s, 3)
    _T0.append(_t)
    _T1.append(((_t >> 8) | (_t << 24)) & 0xFFFFFFFF)
    _T2.append(((_t >> 16) | (_t << 16)) & 0xFFFFFFFF)
    _T3.append(((_t >> 24) | (_t << 8)) & 0xFFFFFFFF)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D]


class AES:
    """The AES block transform for a fixed key.

    >>> AES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = key
        self._round_keys = self._expand_key(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        words = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = int.from_bytes(
                    bytes(_SBOX[b] for b in temp.to_bytes(4, "big")), "big"
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = int.from_bytes(
                    bytes(_SBOX[b] for b in temp.to_bytes(4, "big")), "big"
                )
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES operates on 16-byte blocks")
        rk = self._round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        for rnd in range(1, self.rounds):
            k = 4 * rnd
            t0 = (_T0[s0 >> 24] ^ _T1[(s1 >> 16) & 0xFF]
                  ^ _T2[(s2 >> 8) & 0xFF] ^ _T3[s3 & 0xFF] ^ rk[k])
            t1 = (_T0[s1 >> 24] ^ _T1[(s2 >> 16) & 0xFF]
                  ^ _T2[(s3 >> 8) & 0xFF] ^ _T3[s0 & 0xFF] ^ rk[k + 1])
            t2 = (_T0[s2 >> 24] ^ _T1[(s3 >> 16) & 0xFF]
                  ^ _T2[(s0 >> 8) & 0xFF] ^ _T3[s1 & 0xFF] ^ rk[k + 2])
            t3 = (_T0[s3 >> 24] ^ _T1[(s0 >> 16) & 0xFF]
                  ^ _T2[(s1 >> 8) & 0xFF] ^ _T3[s2 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        k = 4 * self.rounds
        out0 = ((_SBOX[s0 >> 24] << 24) | (_SBOX[(s1 >> 16) & 0xFF] << 16)
                | (_SBOX[(s2 >> 8) & 0xFF] << 8) | _SBOX[s3 & 0xFF]) ^ rk[k]
        out1 = ((_SBOX[s1 >> 24] << 24) | (_SBOX[(s2 >> 16) & 0xFF] << 16)
                | (_SBOX[(s3 >> 8) & 0xFF] << 8) | _SBOX[s0 & 0xFF]) ^ rk[k + 1]
        out2 = ((_SBOX[s2 >> 24] << 24) | (_SBOX[(s3 >> 16) & 0xFF] << 16)
                | (_SBOX[(s0 >> 8) & 0xFF] << 8) | _SBOX[s1 & 0xFF]) ^ rk[k + 2]
        out3 = ((_SBOX[s3 >> 24] << 24) | (_SBOX[(s0 >> 16) & 0xFF] << 16)
                | (_SBOX[(s1 >> 8) & 0xFF] << 8) | _SBOX[s2 & 0xFF]) ^ rk[k + 3]
        return (out0.to_bytes(4, "big") + out1.to_bytes(4, "big")
                + out2.to_bytes(4, "big") + out3.to_bytes(4, "big"))
