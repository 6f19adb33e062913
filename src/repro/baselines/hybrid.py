"""Hybrid Encryption (HE) group access control — the classic baseline.

The group key ``gk`` is encrypted once per member under that member's
public key (HE-PKI, §III-B) or identity (HE-IBE).  Consequences the paper
measures:

* metadata grows linearly with the group size (Fig. 2b);
* revocation re-encrypts for every remaining member — linear time (Fig. 7a);
* adding a member encrypts once — constant time (Fig. 8a);
* member decryption is a single public-key operation — constant time
  (Figs. 8b, 9).

Both key methodologies share :class:`HybridGroupManager`; they differ only
in the per-user primitive behind the :class:`UserCryptoScheme` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

from repro import ibe
from repro.cloud.store import CloudStore
from repro.crypto import ecies
from repro.crypto.envelope import GROUP_KEY_SIZE
from repro.crypto.rng import Rng, SystemRng
from repro.errors import AccessControlError, MembershipError, RevokedError
from repro.obs.metrics import MetricRegistry
from repro.obs.spans import span as _span
from repro.pairing.group import G1Element, PairingGroup
from repro.serialize import Reader, Writer


class UserCryptoScheme(Protocol):
    """Per-user encryption primitive used by hybrid encryption."""

    name: str

    def register_user(self, identity: str) -> None:
        """Create key material for a user (PKI keygen or IBE extract)."""
        ...

    def encrypt_for(self, identity: str, plaintext: bytes) -> bytes:
        ...

    def decrypt_as(self, identity: str, ciphertext: bytes) -> bytes:
        ...


class HePkiScheme:
    """HE with a PKI: per-user ECIES keypairs.

    The registry plays the PKI's role of binding identities to public keys
    (the trust and operational costs of which are part of the paper's case
    against HE-PKI, §III-B).
    """

    name = "HE-PKI"

    def __init__(self, rng: Optional[Rng] = None) -> None:
        self._rng = rng or SystemRng()
        self._keys: Dict[str, ecies.EciesPrivateKey] = {}

    def register_user(self, identity: str) -> None:
        if identity not in self._keys:
            self._keys[identity] = ecies.generate_keypair(self._rng)

    def encrypt_for(self, identity: str, plaintext: bytes) -> bytes:
        key = self._require(identity)
        return key.public_key().encrypt(plaintext, self._rng)

    def decrypt_as(self, identity: str, ciphertext: bytes) -> bytes:
        return self._require(identity).decrypt(ciphertext)

    def _require(self, identity: str) -> ecies.EciesPrivateKey:
        key = self._keys.get(identity)
        if key is None:
            raise MembershipError(f"user {identity!r} has no registered key")
        return key


class HeIbeScheme:
    """HE with Boneh-Franklin IBE: identities *are* the public keys.

    Avoids the PKI but pays pairing-based costs per encryption — the
    constant-factor gap between the HE-PKI and HE-IBE lines of Fig. 2a.
    """

    name = "HE-IBE"

    def __init__(self, group: PairingGroup,
                 rng: Optional[Rng] = None) -> None:
        self._rng = rng or SystemRng()
        self._msk, self.params = ibe.setup(group, self._rng)
        self._user_keys: Dict[str, ibe.IbeUserKey] = {}

    def register_user(self, identity: str) -> None:
        if identity not in self._user_keys:
            self._user_keys[identity] = ibe.extract(
                self._msk, self.params, identity
            )

    def encrypt_for(self, identity: str, plaintext: bytes) -> bytes:
        # Encryption needs no registration — identity is the public key.
        return ibe.encrypt(self.params, identity, plaintext, self._rng).encode()

    def decrypt_as(self, identity: str, ciphertext: bytes) -> bytes:
        user_key = self._user_keys.get(identity)
        if user_key is None:
            raise MembershipError(f"user {identity!r} has no extracted key")
        point_size = 1 + (self.params.group.p.bit_length() + 7) // 8
        u = G1Element.decode(self.params.group, ciphertext[:point_size])
        body = ciphertext[point_size:]
        return ibe.decrypt(self.params, user_key,
                           ibe.IbeCiphertext(u=u, body=body))


@dataclass
class HybridGroupState:
    group_id: str
    group_key: bytes
    wrapped_keys: Dict[str, bytes] = field(default_factory=dict)

    def crypto_footprint(self) -> int:
        """Metadata expansion: one ciphertext per member (Fig. 2b)."""
        return sum(len(ct) for ct in self.wrapped_keys.values())

    def encode(self) -> bytes:
        writer = Writer()
        writer.str_field(self.group_id)
        writer.u32(len(self.wrapped_keys))
        for user in sorted(self.wrapped_keys):
            writer.str_field(user)
            writer.bytes_field(self.wrapped_keys[user])
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "HybridGroupState":
        reader = Reader(data)
        group_id = reader.str_field()
        count = reader.u32()
        wrapped = {}
        for _ in range(count):
            user = reader.str_field()
            wrapped[user] = reader.bytes_field()
        reader.expect_end()
        return cls(group_id=group_id, group_key=b"", wrapped_keys=wrapped)


class HybridGroupManager:
    """Group membership under hybrid encryption.

    Note the missing zero-knowledge property: this manager *sees* ``gk`` in
    plaintext (it must, to re-encrypt on revocation) — exactly the leak the
    paper's enclave-based design eliminates.
    """

    def __init__(self, scheme: UserCryptoScheme,
                 cloud: Optional[CloudStore] = None,
                 rng: Optional[Rng] = None) -> None:
        self.scheme = scheme
        self.cloud = cloud
        self._rng = rng or SystemRng()
        self._groups: Dict[str, HybridGroupState] = {}
        # Same observability surface as the IBBE-SGX administrator: a
        # registry of dotted-name counters under baseline.*.
        self.registry = MetricRegistry()
        self._m_created = self.registry.counter("baseline.groups_created")
        self._m_added = self.registry.counter("baseline.users_added")
        self._m_removed = self.registry.counter("baseline.users_removed")
        self._m_rekeys = self.registry.counter("baseline.rekeys")
        self._m_pushed = self.registry.counter("baseline.bytes_pushed")

    # -- membership operations -----------------------------------------------

    def create_group(self, group_id: str,
                     members: Sequence[str]) -> HybridGroupState:
        """O(n): one public-key encryption of gk per member."""
        if group_id in self._groups:
            raise AccessControlError(f"group {group_id!r} already exists")
        if len(set(members)) != len(members):
            raise MembershipError("duplicate members in group definition")
        with _span("baseline.create_group", scheme=self.scheme.name,
                   members=len(members)):
            gk = self._rng.random_bytes(GROUP_KEY_SIZE)
            state = HybridGroupState(group_id=group_id, group_key=gk)
            for user in members:
                state.wrapped_keys[user] = self.scheme.encrypt_for(user, gk)
            self._groups[group_id] = state
            self._push(state)
        self._m_created.add()
        return state

    def add_user(self, group_id: str, user: str) -> None:
        """O(1): gk unchanged, encrypt once for the newcomer."""
        state = self._require(group_id)
        if user in state.wrapped_keys:
            raise MembershipError(f"user {user!r} is already a member")
        with _span("baseline.add_user", scheme=self.scheme.name):
            state.wrapped_keys[user] = self.scheme.encrypt_for(
                user, state.group_key
            )
            self._push(state)
        self._m_added.add()

    def remove_user(self, group_id: str, user: str) -> None:
        """O(n): fresh gk re-encrypted for every remaining member."""
        state = self._require(group_id)
        if user not in state.wrapped_keys:
            raise MembershipError(f"user {user!r} is not a member")
        with _span("baseline.remove_user", scheme=self.scheme.name,
                   remaining=len(state.wrapped_keys) - 1):
            del state.wrapped_keys[user]
            state.group_key = self._rng.random_bytes(GROUP_KEY_SIZE)
            for member in state.wrapped_keys:
                state.wrapped_keys[member] = self.scheme.encrypt_for(
                    member, state.group_key
                )
            self._push(state)
        self._m_removed.add()

    def rekey(self, group_id: str) -> None:
        state = self._require(group_id)
        with _span("baseline.rekey", scheme=self.scheme.name):
            state.group_key = self._rng.random_bytes(GROUP_KEY_SIZE)
            for member in state.wrapped_keys:
                state.wrapped_keys[member] = self.scheme.encrypt_for(
                    member, state.group_key
                )
            self._push(state)
        self._m_rekeys.add()

    # -- user side ---------------------------------------------------------------

    def derive_group_key(self, group_id: str, user: str) -> bytes:
        """Client-side key derivation: O(1) public-key decryption."""
        state = self._require(group_id)
        wrapped = state.wrapped_keys.get(user)
        if wrapped is None:
            raise RevokedError(
                f"user {user!r} holds no wrapped key for {group_id!r}"
            )
        return self.scheme.decrypt_as(user, wrapped)

    # -- metrics -------------------------------------------------------------------

    def members(self, group_id: str) -> List[str]:
        return sorted(self._require(group_id).wrapped_keys)

    def crypto_footprint(self, group_id: str) -> int:
        return self._require(group_id).crypto_footprint()

    def _push(self, state: HybridGroupState) -> None:
        if self.cloud is not None:
            data = state.encode()
            self.cloud.put(f"/{state.group_id}/he-metadata", data)
            self._m_pushed.add(len(data))

    def _require(self, group_id: str) -> HybridGroupState:
        state = self._groups.get(group_id)
        if state is None:
            raise AccessControlError(f"unknown group {group_id!r}")
        return state
