"""Group-key envelope.

Algorithms 1-3 wrap the 32-byte group key ``gk`` for each partition as
``y_p = AES(SHA-256(bk_p), gk)``; we use AES-256-GCM so clients also detect
corrupted or swapped partition metadata.  The AES key is the digest of the
partition's broadcast key, which only partition members can recompute.
"""

from __future__ import annotations

from repro.crypto.modes import gcm_decrypt, gcm_encrypt
from repro.crypto.rng import Rng
from repro.errors import CryptoError

GROUP_KEY_SIZE = 32
#: nonce + gk + GCM tag
ENVELOPE_SIZE = 12 + GROUP_KEY_SIZE + 16


def wrap_group_key(bk_digest: bytes, group_key: bytes, rng: Rng,
                   aad: bytes = b"") -> bytes:
    """``y = nonce || GCM(SHA-256(bk), gk)`` (fixed size)."""
    if len(bk_digest) != 32:
        raise CryptoError("broadcast-key digest must be 32 bytes")
    if len(group_key) != GROUP_KEY_SIZE:
        raise CryptoError(f"group key must be {GROUP_KEY_SIZE} bytes")
    nonce = rng.random_bytes(12)
    return nonce + gcm_encrypt(bk_digest, nonce, group_key, aad=aad)


def unwrap_group_key(bk_digest: bytes, envelope: bytes,
                     aad: bytes = b"") -> bytes:
    """Recover ``gk``; raises on tampering or a wrong broadcast key."""
    if len(envelope) != ENVELOPE_SIZE:
        raise CryptoError(
            f"envelope must be {ENVELOPE_SIZE} bytes, got {len(envelope)}"
        )
    nonce, body = envelope[:12], envelope[12:]
    return gcm_decrypt(bk_digest, nonce, body, aad=aad)
