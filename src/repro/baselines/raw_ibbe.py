"""Classic IBBE (no enclave, no master secret at the broadcaster).

The third line of Fig. 2: the broadcaster only holds the system public key,
so every group creation *and every membership change* pays the O(n²)
polynomial expansion of eq. 4 — the impracticality that motivates IBBE-SGX.
Metadata stays constant-size, which is IBBE's winning metric in Fig. 2b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import ibbe
from repro.cloud.store import CloudStore
from repro.crypto.envelope import (
    GROUP_KEY_SIZE,
    unwrap_group_key,
    wrap_group_key,
)
from repro.crypto.rng import Rng, SystemRng
from repro.errors import AccessControlError, MembershipError, RevokedError


@dataclass
class RawIbbeGroupState:
    group_id: str
    members: List[str]
    ciphertext: ibbe.IbbeCiphertext
    envelope: bytes

    def crypto_footprint(self) -> int:
        """Constant regardless of group size — IBBE's headline property."""
        return self.ciphertext.size_bytes() + len(self.envelope)


class RawIbbeGroupManager:
    """Broadcaster using only the IBBE public key (trusted authority runs
    setup/extract out of band, as in the classic scheme)."""

    def __init__(self, pk: ibbe.IbbePublicKey,
                 cloud: Optional[CloudStore] = None,
                 rng: Optional[Rng] = None) -> None:
        self.pk = pk
        self.cloud = cloud
        self._rng = rng or SystemRng()
        self._groups: Dict[str, RawIbbeGroupState] = {}

    def create_group(self, group_id: str,
                     members: Sequence[str]) -> RawIbbeGroupState:
        """O(n²): public-key encryption path (eq. 4)."""
        if group_id in self._groups:
            raise AccessControlError(f"group {group_id!r} already exists")
        state = self._encrypt(group_id, list(members))
        self._groups[group_id] = state
        self._push(state)
        return state

    def add_user(self, group_id: str, user: str) -> None:
        """O(n²): without γ or the stored exponent, the broadcaster
        re-encrypts for the extended set (paper A-E)."""
        state = self._require(group_id)
        if user in state.members:
            raise MembershipError(f"user {user!r} is already a member")
        new_state = self._encrypt(group_id, state.members + [user])
        self._groups[group_id] = new_state
        self._push(new_state)

    def remove_user(self, group_id: str, user: str) -> None:
        """O(n²): fresh key, full re-encryption for the reduced set."""
        state = self._require(group_id)
        if user not in state.members:
            raise MembershipError(f"user {user!r} is not a member")
        remaining = [u for u in state.members if u != user]
        if not remaining:
            del self._groups[group_id]
            if self.cloud is not None:
                self.cloud.delete(f"/{group_id}/ibbe-metadata")
            return
        new_state = self._encrypt(group_id, remaining)
        self._groups[group_id] = new_state
        self._push(new_state)

    def derive_group_key(self, group_id: str, user: str,
                         user_key: ibbe.IbbeUserKey) -> bytes:
        """Client-side: O(n²) IBBE decrypt then envelope unwrap."""
        state = self._require(group_id)
        if user not in state.members:
            raise RevokedError(f"user {user!r} is not a member")
        bk = ibbe.decrypt(self.pk, user_key, state.members, state.ciphertext)
        return unwrap_group_key(bk.digest(), state.envelope,
                                aad=group_id.encode("utf-8"))

    def members(self, group_id: str) -> List[str]:
        return list(self._require(group_id).members)

    def crypto_footprint(self, group_id: str) -> int:
        return self._require(group_id).crypto_footprint()

    # -- internals -----------------------------------------------------------

    def _encrypt(self, group_id: str,
                 members: List[str]) -> RawIbbeGroupState:
        bk, ciphertext = ibbe.encrypt_pk(self.pk, members, self._rng)
        gk = self._rng.random_bytes(GROUP_KEY_SIZE)
        envelope = wrap_group_key(bk.digest(), gk, self._rng,
                                  aad=group_id.encode("utf-8"))
        return RawIbbeGroupState(
            group_id=group_id, members=members,
            ciphertext=ciphertext, envelope=envelope,
        )

    def _push(self, state: RawIbbeGroupState) -> None:
        if self.cloud is not None:
            self.cloud.put(
                f"/{state.group_id}/ibbe-metadata",
                state.ciphertext.encode() + state.envelope,
            )

    def _require(self, group_id: str) -> RawIbbeGroupState:
        state = self._groups.get(group_id)
        if state is None:
            raise AccessControlError(f"unknown group {group_id!r}")
        return state
