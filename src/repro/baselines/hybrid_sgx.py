"""HE-SGX: hybrid encryption run inside an enclave (the rejected design).

§III-B considers fixing HE's missing zero-knowledge property by running it
inside SGX, and rejects the idea: the group metadata (one wrapped key per
member) is the enclave's working set, it grows linearly with the group,
and enclave memory is expensive — 19.5 %/102 % write/read overheads and
hard EPC limits.  "Apprehensive about the hypothesized SGX degradation in
performance caused by the group metadata expansion, we shift the focus on
finding a solution with minimal expansion."

This module *implements* that rejected design so the claim can be
measured rather than assumed: an enclave that performs the per-member
ECIES wrapping of ``gk`` inside the boundary, charging the EPC model for
the full metadata working set on every revocation.  The
``bench_ablation_epc`` benchmark runs it head-to-head against IBBE-SGX on
the same device.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import ecies
from repro.crypto.envelope import GROUP_KEY_SIZE
from repro.errors import (
    AccessControlError,
    EnclaveError,
    MembershipError,
    RevokedError,
)
from repro.obs.metrics import MetricRegistry
from repro.sgx.enclave import Enclave, ecall


class HeSgxEnclave(Enclave):
    """Enclave holding the HE group keys and the user public-key registry.

    The per-user wrapped-key map is the metadata the paper worries about:
    every revocation reads and rewrites all of it inside the enclave, so
    the EPC model is charged for the full pass (compare
    :meth:`repro.enclave_app.IbbeEnclave.remove_user`, whose working set
    is a constant few hundred bytes per partition).
    """

    VERSION = "he-sgx-1.0"

    def __init__(self, device, config=None) -> None:
        super().__init__(device, config)
        self._group_keys: Dict[str, bytes] = {}
        self._public_keys: Dict[str, ecies.EciesPublicKey] = {}

    # -- registry ---------------------------------------------------------------

    @ecall(batchable=True)
    def register_user(self, identity: str, public_key_bytes: bytes) -> None:
        self._public_keys[identity] = ecies.EciesPublicKey.decode(
            public_key_bytes
        )

    # -- membership operations -----------------------------------------------------

    @ecall(batchable=True)
    def create_group(self, group_id: str,
                     members: Sequence[str]) -> Dict[str, bytes]:
        if group_id in self._group_keys:
            raise EnclaveError(f"group {group_id!r} already exists")
        gk = self.track_secret(self.rng.random_bytes(GROUP_KEY_SIZE))
        self._group_keys[group_id] = gk
        wrapped = self._wrap_for(members, gk)
        self._charge_metadata_pass(wrapped)
        return wrapped

    @ecall(batchable=True)
    def add_user(self, group_id: str, user: str) -> bytes:
        gk = self._require_gk(group_id)
        wrapped = self._wrap_for([user], gk)
        # O(1) working set: only the new entry is staged.
        self._charge_metadata_pass(wrapped)
        return wrapped[user]

    @ecall(batchable=True)
    def remove_user(self, group_id: str,
                    remaining_members: Sequence[str]) -> Dict[str, bytes]:
        """Revocation: fresh gk, re-wrap for everyone — the linear pass
        over the full metadata that §III-B warns about."""
        self._require_gk(group_id)
        gk = self.track_secret(self.rng.random_bytes(GROUP_KEY_SIZE))
        self._group_keys[group_id] = gk
        wrapped = self._wrap_for(remaining_members, gk)
        self._charge_metadata_pass(wrapped)
        return wrapped

    # -- internals ---------------------------------------------------------------

    def _wrap_for(self, members: Sequence[str],
                  gk: bytes) -> Dict[str, bytes]:
        wrapped = {}
        for user in members:
            key = self._public_keys.get(user)
            if key is None:
                raise MembershipError(f"user {user!r} has no registered key")
            wrapped[user] = key.encrypt(gk, self.rng)
        return wrapped

    def _charge_metadata_pass(self, wrapped: Dict[str, bytes]) -> None:
        """Account one read+write pass over the staged metadata."""
        nbytes = sum(len(v) + len(k.encode()) for k, v in wrapped.items())
        if nbytes == 0:
            return
        handle = self.epc_allocate(nbytes)
        try:
            self.epc_touch(handle, nbytes, write=False)
            self.epc_touch(handle, nbytes, write=True)
        finally:
            self.device.epc.free(handle)
            self._epc_regions.remove(handle)

    def _require_gk(self, group_id: str) -> bytes:
        gk = self._group_keys.get(group_id)
        if gk is None:
            raise EnclaveError(f"unknown group {group_id!r}")
        return gk


class HeSgxGroupManager:
    """Untrusted driver for :class:`HeSgxEnclave` — the admin-side shape
    matches :class:`~repro.baselines.hybrid.HybridGroupManager`, but the
    manager never sees ``gk`` (zero knowledge achieved, at the metadata
    cost the paper rejects)."""

    def __init__(self, enclave: HeSgxEnclave,
                 user_keys: Optional[Dict[str, ecies.EciesPrivateKey]] = None,
                 ) -> None:
        self.enclave = enclave
        #: client-side private keys (held by users, kept here for tests)
        self.user_keys: Dict[str, ecies.EciesPrivateKey] = user_keys or {}
        self._wrapped: Dict[str, Dict[str, bytes]] = {}
        # baseline.* counters, same surface as HybridGroupManager; the
        # enclave boundary costs show up in the enclave's own sgx.* meter.
        self.registry = MetricRegistry()
        self._m_created = self.registry.counter("baseline.groups_created")
        self._m_added = self.registry.counter("baseline.users_added")
        self._m_removed = self.registry.counter("baseline.users_removed")

    def register_user(self, identity: str,
                      private_key: ecies.EciesPrivateKey) -> None:
        self.user_keys[identity] = private_key
        self.enclave.call(
            "register_user", identity, private_key.public_key().encode()
        )

    def create_group(self, group_id: str, members: Sequence[str]) -> None:
        self._wrapped[group_id] = self.enclave.call(
            "create_group", group_id, list(members)
        )
        self._m_created.add()

    def add_user(self, group_id: str, user: str) -> None:
        wrapped = self._require(group_id)
        if user in wrapped:
            raise MembershipError(f"user {user!r} is already a member")
        wrapped[user] = self.enclave.call("add_user", group_id, user)
        self._m_added.add()

    def remove_user(self, group_id: str, user: str) -> None:
        wrapped = self._require(group_id)
        if user not in wrapped:
            raise MembershipError(f"user {user!r} is not a member")
        remaining = [u for u in wrapped if u != user]
        self._wrapped[group_id] = self.enclave.call(
            "remove_user", group_id, remaining
        )
        self._m_removed.add()

    def derive_group_key(self, group_id: str, user: str) -> bytes:
        wrapped = self._require(group_id).get(user)
        if wrapped is None:
            raise RevokedError(f"user {user!r} holds no wrapped key")
        return self.user_keys[user].decrypt(wrapped)

    def members(self, group_id: str) -> List[str]:
        return sorted(self._require(group_id))

    def crypto_footprint(self, group_id: str) -> int:
        return sum(len(v) for v in self._require(group_id).values())

    def _require(self, group_id: str) -> Dict[str, bytes]:
        wrapped = self._wrapped.get(group_id)
        if wrapped is None:
            raise AccessControlError(f"unknown group {group_id!r}")
        return wrapped
