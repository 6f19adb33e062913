"""Boneh-Franklin identity-based encryption (CRYPTO'01), hybrid variant.

``BasicIdent`` hardened into an authenticated hybrid scheme: the pairing
value masks an HKDF-derived AES-256-GCM key rather than the message
directly.  Identity strings serve directly as public keys; a trusted
authority (in this reproduction: the SGX enclave) holds the master secret
``s`` and extracts per-user keys.

This is the primitive behind the paper's HE-IBE baseline (Fig. 2): hybrid
encryption where each recipient's copy of the group key is IBE-encrypted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import hkdf
from repro.crypto.modes import gcm_decrypt, gcm_encrypt
from repro.crypto.rng import Rng
from repro.ec.hashing import hash_to_point
from repro.errors import SchemeError
from repro.pairing.group import G1Element, GTElement, PairingGroup


@dataclass(frozen=True)
class IbePublicParams:
    group: PairingGroup
    p_pub: G1Element  # g^s

    def hash_identity(self, identity: str) -> G1Element:
        point = hash_to_point(
            self.group.curve, identity.encode("utf-8"), domain=b"repro:bf-ibe"
        )
        return G1Element(self.group, point)


@dataclass(frozen=True)
class IbeMasterSecret:
    s: int


@dataclass(frozen=True)
class IbeUserKey:
    identity: str
    element: G1Element  # Q_id^s


@dataclass(frozen=True)
class IbeCiphertext:
    u: G1Element      # g^r
    body: bytes       # nonce || AES-GCM(key, message)

    def encode(self) -> bytes:
        return self.u.encode() + self.body

    def size_bytes(self) -> int:
        return len(self.encode())


def setup(group: PairingGroup, rng: Rng):
    """Generate IBE master secret and public parameters."""
    s = group.random_scalar(rng)
    return IbeMasterSecret(s), IbePublicParams(group, group.g1 ** s)


def extract(msk: IbeMasterSecret, params: IbePublicParams,
            identity: str) -> IbeUserKey:
    q_id = params.hash_identity(identity)
    return IbeUserKey(identity, q_id ** msk.s)


def encrypt(params: IbePublicParams, identity: str, message: bytes,
            rng: Rng) -> IbeCiphertext:
    r = params.group.random_scalar(rng)
    u = params.group.g1 ** r
    q_id = params.hash_identity(identity)
    # The pairing is symmetric; the long-lived ``p_pub`` goes first so
    # its cached Miller lines serve every encryption.
    shared = params.group.pair(params.p_pub, q_id) ** r
    key = _derive_key(shared, u)
    nonce = rng.random_bytes(12)
    return IbeCiphertext(u, nonce + gcm_encrypt(key, nonce, message))


def decrypt(params: IbePublicParams, user_key: IbeUserKey,
            ciphertext: IbeCiphertext) -> bytes:
    if len(ciphertext.body) < 12 + 16:
        raise SchemeError("IBE ciphertext body too short")
    shared = params.group.pair(user_key.element, ciphertext.u)
    key = _derive_key(shared, ciphertext.u)
    nonce, sealed = ciphertext.body[:12], ciphertext.body[12:]
    return gcm_decrypt(key, nonce, sealed)


def _derive_key(shared: GTElement, u: G1Element) -> bytes:
    return hkdf(shared.encode(), 32, salt=u.encode(), info=b"repro:bf-ibe:v1")
