"""Hashing and key-derivation helpers (SHA-256 based).

``hashlib`` provides the compression function; everything above it (HMAC,
HKDF) is implemented here so the package carries its own KDF stack.
"""

from __future__ import annotations

import hashlib
from repro.errors import ValidationError

_BLOCK = 64  # SHA-256 block size
_DIGEST = 32


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104)."""
    if len(key) > _BLOCK:
        key = sha256(key)
    key = key.ljust(_BLOCK, b"\x00")
    o_pad = bytes(b ^ 0x5C for b in key)
    i_pad = bytes(b ^ 0x36 for b in key)
    return sha256(o_pad + sha256(i_pad + message))


def hkdf(ikm: bytes, length: int, salt: bytes = b"",
         info: bytes = b"") -> bytes:
    """HKDF-SHA256 extract-then-expand (RFC 5869)."""
    if length > 255 * _DIGEST:
        raise ValidationError("HKDF output too long")
    prk = hmac_sha256(salt or bytes(_DIGEST), ikm)
    out = b""
    block = b""
    counter = 1
    while len(out) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        out += block
        counter += 1
    return out[:length]
