"""ECDSA over NIST P-256 with deterministic nonces (RFC 6979 style).

Signatures appear throughout the system: administrators authenticate
membership updates (the paper authenticates admin identities, §II), SGX
quotes are signed by the simulated quoting infrastructure, IAS reports by
the simulated attestation service, and the Auditor/CA signs enclave
certificates (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.crypto.kdf import hmac_sha256, sha256
from repro.crypto.rng import Rng
from repro.ec.curve import FixedBaseWnaf, Point
from repro.ec.p256 import P256
from repro.errors import AuthenticationError, CryptoError
from repro.mathutils.modular import modinv

assert P256.order is not None    # narrows Optional[int] for the type checker
_N: int = P256.order


@dataclass(frozen=True)
class EcdsaPublicKey:
    """A verification key; equality, hashing, encoding and pickling see
    only :attr:`point`."""

    point: Point
    _long_lived: bool = field(default=False, init=False, repr=False,
                              compare=False)
    _table: Optional[FixedBaseWnaf] = field(default=None, init=False,
                                            repr=False, compare=False)

    def enable_precomputation(self) -> "EcdsaPublicKey":
        """Mark THIS key object long-lived: its next :meth:`verify` builds
        a fixed-base table (≈ 5 ms, ≈ 36 KB) and every later one costs
        two table walks instead of a 256-bit Straus ladder (0.8 ms
        against 1.9 ms, so the table pays back on the fifth check).

        For holders that pin one key for their lifetime — a client and
        an administrator checking store metadata.  One-shot keys (quotes,
        IAS reports, certificates) are verified two or three times and
        stay on the ladder.
        """
        object.__setattr__(self, "_long_lived", True)
        return self

    def __reduce__(self) -> Tuple[Any, ...]:
        return (EcdsaPublicKey, (self.point,))

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify; raises :class:`AuthenticationError` on failure."""
        if len(signature) != 64:
            raise AuthenticationError("ECDSA signature must be 64 bytes")
        r = int.from_bytes(signature[:32], "big")
        s = int.from_bytes(signature[32:], "big")
        if not (0 < r < _N and 0 < s < _N):
            raise AuthenticationError("ECDSA signature out of range")
        z = _hash_to_int(message)
        w = modinv(s, _N)
        u1 = (z * w) % _N
        u2 = (r * w) % _N
        table = self._table
        if table is None and self._long_lived:
            table = FixedBaseWnaf(P256, self.point, bits=_N.bit_length())
            object.__setattr__(self, "_table", table)
        point = P256.multi_mul([(u1, P256.generator_table()),
                                (u2, table or self.point)])
        if point.x is None or point.x % _N != r:
            raise AuthenticationError("ECDSA signature invalid")

    def is_valid(self, message: bytes, signature: bytes) -> bool:
        try:
            self.verify(message, signature)
            return True
        except AuthenticationError:
            return False

    def encode(self) -> bytes:
        return self.point.encode()

    @classmethod
    def decode(cls, data: bytes) -> "EcdsaPublicKey":
        return cls(Point.decode(P256, data))


@dataclass(frozen=True)
class EcdsaPrivateKey:
    scalar: int

    def public_key(self) -> EcdsaPublicKey:
        return EcdsaPublicKey(P256.mul_generator(self.scalar))

    def sign(self, message: bytes) -> bytes:
        """Deterministic ECDSA (RFC 6979-style HMAC nonce derivation)."""
        return self.sign_many([message])[0]

    def sign_many(self, messages: Sequence[bytes]) -> List[bytes]:
        """:meth:`sign` for every message, byte for byte, with all the
        nonce points ``k·G`` from one
        :meth:`~repro.ec.curve.Curve.tabled_sums` batch, so the
        signatures share its inversions."""
        nonces = [_deterministic_nonce(self.scalar, m) for m in messages]
        table = P256.generator_table()
        points = P256.tabled_sums([[(k, table)] for k in nonces])
        return [self._finish(message, k, point.x)
                for message, k, point in zip(messages, nonces, points)]

    def _finish(self, message: bytes, k: int, x: Optional[int]) -> bytes:
        """``r ‖ s`` from the nonce ``k`` and the x of ``k·G``; a zero
        ``r`` or ``s`` re-derives the nonce (never seen in practice)."""
        z = _hash_to_int(message)
        for attempt in range(64):
            r = 0 if x is None else x % _N
            if r != 0:
                s = (modinv(k, _N) * (z + r * self.scalar)) % _N
                if s != 0:
                    return r.to_bytes(32, "big") + s.to_bytes(32, "big")
            k = (k * 2 + 1 + attempt) % _N or 1
            x = P256.mul_generator(k).x
        raise CryptoError("failed to produce an ECDSA signature")


def generate_keypair(rng: Rng) -> EcdsaPrivateKey:
    return EcdsaPrivateKey(1 + rng.randint_below(_N - 1))


def _hash_to_int(message: bytes) -> int:
    return int.from_bytes(sha256(message), "big") % _N


def _deterministic_nonce(secret: int, message: bytes) -> int:
    """Simplified RFC 6979: HMAC-derived nonce, unique per (key, message)."""
    key_bytes = secret.to_bytes(32, "big")
    v = hmac_sha256(key_bytes, b"nonce:" + sha256(message))
    k = int.from_bytes(v + hmac_sha256(v, key_bytes), "big") % _N
    return k or 1
