"""The IBBE-SGX enclave (the shaded regions of Algorithms 1-3).

This enclave owns the IBBE master secret ``MSK = (g, γ)`` and every
plaintext group key ``gk``.  Untrusted administrator code sees only:

* the system public key (public by definition),
* member lists and partition ciphertexts ``c_p`` (public broadcast
  metadata; Algorithms 1-3 are driven by the lists, and only a key
  recovery and the unused paper-form extension read one back),
* group-key envelopes ``y_p`` (AES-GCM ciphertext),
* sealed blobs (group keys, master secret) bound to this enclave identity.

The honest-but-curious administrator of the paper's model drives these
ecalls but gains zero knowledge of ``gk`` — the property the boundary leak
scanner and the zero-knowledge tests enforce.

Ecall inventory: the ``ibbe-enclave-ecalls`` block of docs/API.md lists
every registered ecall (``enclave.call(name, ...)``) with its signature,
and ``test_registered_ecalls_match_docs`` pins that block to the live
registry.  The ones declared ``@ecall(batchable=True)`` below may ride
in a single :meth:`~repro.sgx.enclave.Enclave.call_batch` crossing.

Parallel execution: the per-partition work of ``create_group``,
``rekey_group`` and ``remove_user`` is partition-independent, so it runs
on the :mod:`repro.par` engine — the substrate's version of the paper's
in-enclave worker threads (Fig. 5).  The engine is configured by the
``workers`` config entry (default: the ``REPRO_WORKERS`` environment
variable, else serial) and changes *performance only*: per-partition
randomness streams are derived by index from one parent seed, so any
worker count produces byte-identical blobs.  γ-dependent aggregation,
group-key generation, enveloping and sealing always execute inside this
enclave; workers receive public-key material and per-partition
aggregates, which are MSK-equivalent — they are the enclave's own
threads (see DESIGN.md, "Parallel engine and the trust split").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import ibbe
from repro.crypto import ecdsa, ecies
from repro.crypto.envelope import (
    GROUP_KEY_SIZE,
    unwrap_group_key,
    wrap_group_key,
)
from repro.crypto.kdf import hkdf, sha256
from repro.ec.p256 import P256
from repro.errors import (AttestationError, EnclaveError, SchemeError,
                          SealingError)
from repro.obs.spans import span as _span
from repro.pairing.group import G1Element, PairingGroup
from repro.par import WorkerPool, derive_seed, resolve_workers
from repro.par import kernels as par_kernels
from repro.sgx.counters import MonotonicCounterService
from repro.sgx.enclave import Enclave, ecall
from repro.sgx.quote import AttestationReport, Quote


@dataclass(frozen=True)
class PartitionBlob:
    """Untrusted-side view of one partition's cryptographic payload."""

    #: IbbeCiphertext encoding ``c1 || c2 || c3`` — or the header
    #: ``c1 || c2`` alone where a re-key left the stored ``c3`` as it is.
    ciphertext: bytes
    envelope: bytes     # y_p = nonce || GCM(SHA-256(bk_p), gk)


def parse_provision_request(request: bytes) -> Tuple[str, ecies.EciesPublicKey]:
    """Decode the body of a Fig. 3 step 4 provisioning request."""
    try:
        body = json.loads(request.decode("utf-8"))
        identity = body["identity"]
        response_key = ecies.EciesPublicKey.decode(
            bytes.fromhex(body["response_key"])
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise AttestationError("malformed provisioning request") from exc
    if not isinstance(identity, str) or not identity:
        raise AttestationError("provisioning request lacks an identity")
    return identity, response_key


class IbbeEnclave(Enclave):
    """Enclave application holding the IBBE master secret."""

    VERSION = "ibbe-sgx-1.0"

    # The engine knob is performance-only (results are byte-identical at
    # any worker count), so it stays out of the audited identity — a
    # redeploy with more workers must still unseal its MSK.
    UNMEASURED_CONFIG = frozenset({"workers"})

    #: Outstanding :meth:`peer_offer` challenges kept (oldest evicted):
    #: the host cannot grow enclave memory by looping that ecall.
    MAX_PEER_CHALLENGES = 32

    def __init__(self, device, config=None) -> None:
        super().__init__(device, config)
        group = (self.config or {}).get("pairing_group")
        if not isinstance(group, PairingGroup):
            raise EnclaveError(
                "IbbeEnclave requires a 'pairing_group' config entry"
            )
        self._group: PairingGroup = group
        self._msk: Optional[ibbe.IbbeMasterSecret] = None
        self._pk: Optional[ibbe.IbbePublicKey] = None
        # The identity key is derived from the platform sealing root and
        # this enclave's measurement (the moral equivalent of sealing it):
        # the same enclave build on the same device presents the same
        # certified identity across restarts, which the persistent CLI
        # deployment relies on.
        scalar = 1 + int.from_bytes(
            hkdf(self.device.sealing_root_key(), 48,
                 salt=self.measurement, info=b"repro:enclave-identity"),
            "big",
        ) % (P256.order - 1)
        self._identity_key = ecies.EciesPrivateKey(scalar)
        # Derived once: each derivation is a P-256 generator multiplication.
        self._identity_public = self._identity_key.public_key().encode()
        # The pinned IAS report key, decoded by the first register_peer.
        self._ias_key: Optional[ecdsa.EcdsaPublicKey] = None
        # Monotonic counters are a *platform* service: use the device's
        # registry (when present) so sealed-blob versions keep advancing
        # across enclave restarts — a restarted enclave must still detect
        # a replayed old sealed group key.
        self._counters = getattr(device, "counters", None) \
            or MonotonicCounterService()
        self._seal_counters: Dict[str, int] = {}
        # Per group, the digest of the gk a stale sealed blob held: only
        # that key may be re-sealed from the records (a failed commit).
        self._refused_gk: Dict[str, bytes] = {}
        # MAGE-style peer registry (multi-enclave deployments).  Keyed
        # by the peer's identity public key bytes; entries are added
        # only by a completed mutual-attestation handshake
        # (:meth:`register_peer`) and never cross the boundary.
        self._peers: Dict[bytes, bool] = {}
        #: Nonces this enclave issued (:meth:`peer_offer`) and has not
        #: yet seen answered — the freshness check of the handshake.
        self._peer_nonces: Dict[bytes, bool] = {}
        # Parallel engine configuration (repro.par).  The pool itself is
        # created lazily on first use (it needs the public key) and its
        # par.* metrics ride this enclave's meter registry.
        self._workers = resolve_workers((self.config or {}).get("workers"))
        self._pool: Optional[WorkerPool] = None
        self.meter.registry.gauge("par.workers", lambda: self._workers)

    def destroy(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        super().destroy()

    # -- system lifecycle -------------------------------------------------------

    @ecall
    def setup_system(self, m: int) -> Tuple[ibbe.IbbePublicKey, bytes]:
        """IBBE system setup bound to partition capacity ``m`` (Fig. 6a).

        Returns the public key and the MSK sealed for persistence.  The
        plaintext MSK never crosses the boundary.
        """
        if self._msk is not None:
            raise EnclaveError("system already set up")
        msk, pk = ibbe.setup(self._group, m, self.rng)
        self._install_msk(msk, pk)
        return pk, self._seal_msk(msk)

    @ecall
    def restore_system(self, sealed_msk: bytes,
                       pk: ibbe.IbbePublicKey) -> None:
        """Reload a previously sealed master secret (enclave restart)."""
        data = self.unseal_data(sealed_msk, aad=b"ibbe-msk")
        self._install_msk(self._decode_msk(data), pk)

    def _install_msk(self, msk: ibbe.IbbeMasterSecret,
                     pk: ibbe.IbbePublicKey) -> None:
        self._msk = msk
        self._pk = pk
        # Algorithms 1-3 exponentiate w, v and h: table them now.  Only
        # extract raises g, and it tables g on first use (a failover
        # extracts nothing).
        pk.enable_precomputation()
        self.track_secret(msk.gamma.to_bytes(32, "big"))
        self.track_secret(msk.g.encode())

    def _encode_msk(self, msk: ibbe.IbbeMasterSecret) -> bytes:
        return msk.gamma.to_bytes(64, "big") + msk.g.encode()

    def _seal_msk(self, msk: ibbe.IbbeMasterSecret) -> bytes:
        """This platform's sealed copy, the blob :meth:`restore_system`
        reloads: every door that installs a new MSK returns one."""
        return self.seal_data(self._encode_msk(msk), aad=b"ibbe-msk")

    def _decode_msk(self, data: bytes) -> ibbe.IbbeMasterSecret:
        gamma = int.from_bytes(data[:64], "big")
        g = G1Element.decode(self._group, data[64:])
        return ibbe.IbbeMasterSecret(g=g, gamma=gamma)

    # -- trust establishment (Fig. 3) ---------------------------------------------

    @ecall(batchable=True)
    def get_system_bound(self) -> int:
        """The maximal broadcast-set (partition) size ``m`` fixed at setup."""
        return self._require_pk().m

    @ecall
    def get_public_key(self) -> bytes:
        return self._identity_public

    @ecall
    def get_attestation_quote(self, nonce: bytes = b"") -> Quote:
        """The one quote: its 64-byte report data commits to this
        enclave's identity key (first half) and echoes a peer's
        challenge ``nonce`` (second half; zeros without one — the quote
        the Auditor certifies, which no :meth:`register_peer` admits)."""
        if not isinstance(nonce, bytes) or len(nonce) not in (0, 32):
            raise AttestationError("peer nonce must be 32 bytes")
        commitment = sha256(self._identity_public)
        return self.get_quote(commitment + nonce)

    @ecall
    def provision_user_key(self, sealed_request: bytes) -> bytes:
        """Extract a user's IBBE secret key, returned over the channel the
        user established (their response key travelled inside the request,
        which only this enclave could decrypt)."""
        request = self._identity_key.decrypt(sealed_request, aad=b"usk-request")
        identity, response_key = parse_provision_request(request)
        usk = ibbe.extract(self._require_msk(), self._require_pk(), identity)
        return response_key.encrypt(usk.encode(), self.rng, aad=b"usk-response")

    # -- master-secret migration: MAGE mutual attestation (§VIII avenue 2) ------
    #
    # The one way an MSK travels between enclaves (a further
    # administrator, a shard) needs no third party — the MAGE
    # construction, arXiv:2008.09501: two enclaves of the *same build*
    # attest each other directly, each verifying the other's IAS-signed
    # report under the IAS report key pinned in its measured
    # configuration and requiring the peer's measurement to equal its
    # OWN.  The Auditor certifies enclaves to *users* and never enters.

    @ecall
    def peer_offer(self) -> Dict[str, bytes]:
        """Step 1 of the peer handshake: this enclave's identity public
        key plus a fresh nonce the *peer* must echo inside its quote's
        report data — step 2, :meth:`get_attestation_quote` with that
        nonce (freshness: a replayed quote carries a nonce this enclave
        never issued, or one already consumed)."""
        nonce = self.rng.random_bytes(32)
        self._peer_nonces[nonce] = True
        if len(self._peer_nonces) > self.MAX_PEER_CHALLENGES:
            del self._peer_nonces[next(iter(self._peer_nonces))]
        return {
            "public_key": self._identity_public,
            "nonce": nonce,
        }

    @ecall
    def register_peer(self, report, peer_public_key: bytes) -> None:
        """Step 3, run inside the boundary: admit a peer after checking
        the full MAGE predicate.

        * the report verifies under the IAS report key pinned in this
          enclave's *measured* configuration (``ias_report_key``) and
          says the quote checked out (genuine, non-revoked platform);
        * the quoted measurement equals OUR measurement — same audited
          build, no third party needed to say which builds are good;
        * the report data commits to the presented peer key and echoes
          a nonce this enclave issued (and consumes it).
        """
        pinned_hex = (self.config or {}).get("ias_report_key")
        if not pinned_hex:
            raise AttestationError(
                "peer attestation requires a pinned 'ias_report_key' in "
                "the enclave configuration"
            )
        if not isinstance(report, AttestationReport):
            raise AttestationError("malformed attestation report")
        if not isinstance(peer_public_key, bytes):
            raise AttestationError("peer public key must be bytes")
        if self._ias_key is None:
            self._ias_key = ecdsa.EcdsaPublicKey.decode(
                bytes.fromhex(str(pinned_hex)))
        report.verify(self._ias_key)
        if not report.is_ok:
            raise AttestationError(
                f"peer quote rejected by IAS: {report.quote_status}"
            )
        if report.measurement != self.measurement:
            raise AttestationError(
                "refusing peer: enclave runs different code"
            )
        expected = sha256(peer_public_key)
        if report.report_data[:32] != expected:
            raise AttestationError(
                "peer report does not commit to the presented key"
            )
        nonce = report.report_data[32:64]
        if nonce not in self._peer_nonces:
            raise AttestationError(
                "peer report does not answer an outstanding challenge"
            )
        del self._peer_nonces[nonce]
        self._peers[peer_public_key] = True

    @ecall
    def export_master_secret_to_peer(self, peer_public_key: bytes) -> bytes:
        """Encrypt the MSK to a *mutually attested* peer enclave: the
        authorisation is membership in the peer registry, which only
        :meth:`register_peer`'s in-boundary checks can grant."""
        if (not isinstance(peer_public_key, bytes)
                or peer_public_key not in self._peers):
            raise AttestationError(
                "refusing MSK export: key is not a mutually attested peer"
            )
        msk = self._require_msk()
        target_key = ecies.EciesPublicKey.decode(peer_public_key)
        return target_key.encrypt(self._encode_msk(msk), self.rng,
                                  aad=b"msk-peer")

    @ecall
    def import_master_secret_from_peer(self, blob: bytes,
                                       pk: ibbe.IbbePublicKey,
                                       sender_public_key: bytes) -> bytes:
        """Counterpart of :meth:`export_master_secret_to_peer`; returns
        this platform's sealed copy, as :meth:`setup_system` does.

        The sender must be in OUR peer registry too (the handshake is
        mutual), so an unattested party cannot feed this enclave a
        master secret of its choosing."""
        if self._msk is not None:
            raise EnclaveError("enclave already holds a master secret")
        if (not isinstance(sender_public_key, bytes)
                or sender_public_key not in self._peers):
            raise AttestationError(
                "refusing MSK import: sender is not a mutually attested peer"
            )
        data = self._identity_key.decrypt(blob, aad=b"msk-peer")
        msk = self._decode_msk(data)
        self._install_msk(msk, pk)
        return self._seal_msk(msk)

    # -- Algorithm 1: create group -------------------------------------------------
    #
    # Algorithms 1-3 take member lists, never a stored aggregate: C3 =
    # h^{∏(γ+H(u))} is a function of the list and this enclave holds γ,
    # so every partition is (re)built from the tabled h, w, v with the
    # exponent folded in Z_q (eq. 3).  Each entry validates what the host
    # handed it before the first rng draw or counter increment, so a
    # refused call leaves no trace.

    @ecall(batchable=True)
    def create_group(self, group_id: str,
                     partitions: Sequence[Sequence[str]],
                     ) -> Tuple[List[PartitionBlob], bytes]:
        """Lines 2-6 of Algorithm 1 (the enclaved region).

        Generates ``gk``, then per partition: an IBBE-SGX broadcast key and
        ciphertext via the O(|p|) MSK path, and the envelope ``y_p``.
        Returns the per-partition blobs and the sealed group key.

        The per-partition work runs on the parallel engine (the paper's
        enclave worker threads); the result is byte-identical for every
        worker count.
        """
        msk, pk = self._require_msk(), self._require_pk()
        partitions = self._checked_partitions(pk, partitions)
        return self._rotate_group_key(msk, partitions, group_id,
                                      "partition", len(partitions))

    # -- Algorithm 2: add user -------------------------------------------------------

    @ecall(batchable=True)
    def create_partition(self, group_id: str, members: Sequence[str],
                         sealed_gk: bytes) -> PartitionBlob:
        """Algorithm 2: the partition an add opens (lines 4-6) or extends
        (line 11), rebuilt around its whole member list under a fresh
        ``k`` — one tabled-sum batch, no ladder, no stored point read —
        with the current ``gk`` in a fresh envelope."""
        msk, pk = self._require_msk(), self._require_pk()
        partitions = self._checked_partitions(pk, [members])
        gk = self.track_secret(self._unseal_group_key(group_id, sealed_gk))
        return self._build_partitions(msk, partitions, gk, group_id,
                                      "partition", 1)[0]

    @ecall(batchable=True)
    def add_user_to_partition(self, ciphertext: bytes,
                              members: Sequence[str],
                              identities: Sequence[str]) -> bytes:
        """The paper's Algorithm 2 line 11, unused (an add rebuilds
        through :meth:`create_partition`) and to go with the per-layer
        ``BENCHMARK.json`` rows naming it (ROADMAP item 2): extend the
        ciphertext of the partition holding ``members`` by ``identities``
        with ``bk`` unchanged.  ``C1`` passes through; ``C2`` is raised
        once to the product of the new factors — a variable-base ladder,
        as ``k`` is not kept — and ``C3 = h^{∏ all}`` comes off the
        table; byte-identical to extending by one identity at a time."""
        msk, pk = self._require_msk(), self._require_pk()
        c1, c2, _ = ibbe.IbbeCiphertext.split(self._group, ciphertext)
        members, identities = list(members), list(identities)
        extended = members + identities
        ibbe.check_broadcast_set(pk, members)
        ibbe.check_broadcast_set(pk, extended)
        self._account_epc(len(ciphertext))
        self._account_members(extended)
        q = self._group.q
        added = ibbe.aggregate_exponent(
            msk, q, map(pk.hash_identity, identities))
        total = added * ibbe.aggregate_exponent(
            msk, q, map(pk.hash_identity, members)) % q
        new_c2 = G1Element.decode(self._group, c2) ** added
        return c1 + new_c2.encode() + (pk.h ** total).encode()

    # -- Algorithm 3: remove user -------------------------------------------------------

    @ecall(batchable=True)
    def remove_user(self, group_id: str, identity: str,
                    hosting_members: Sequence[str],
                    other_partitions: Sequence[Sequence[str]],
                    ) -> Tuple[PartitionBlob, List[PartitionBlob], bytes]:
        """Lines 3-9 of Algorithm 3 (the enclaved region).

        ``hosting_members`` is the revoked user's partition *without*
        them.  A fresh ``gk`` is generated and enveloped under a fresh
        ``(C1, C2, bk)`` per partition; the hosting blob also carries its
        shrunken ``C3``.  The other partitions' ``C3`` is untouched by a
        re-key, so it neither enters nor leaves: their blobs hold the
        header ``C1 ‖ C2`` alone and the caller keeps the stored third.
        """
        msk, pk = self._require_msk(), self._require_pk()
        partitions = self._checked_partitions(
            pk, [hosting_members, *other_partitions])
        if any(identity in members for members in partitions):
            raise SchemeError(
                f"refusing to revoke {identity!r}: a partition still lists it"
            )
        blobs, sealed_gk = self._rotate_group_key(msk, partitions, group_id,
                                                  "rekey", 1)
        return blobs[0], blobs[1:], sealed_gk

    @ecall(batchable=True)
    def recover_and_reseal(self, group_id: str, members: Sequence[str],
                           ciphertext: bytes, envelope: bytes) -> bytes:
        """Recover ``gk`` from current partition metadata and seal it for
        *this* enclave.

        Sealed blobs are bound to the sealing platform, so in a
        multi-administrator deployment a sealed ``gk`` produced by one
        admin's enclave is opaque to another's.  No secret needs to travel
        though: holding the MSK, this enclave can extract any listed
        member's key, run the ordinary IBBE decryption and unwrap the
        envelope — exactly what that member could do — then re-seal.

        The caller must supply a *current* (admin-signed) partition
        record; replaying an outdated record would merely revive an old
        ``gk``, which the client-side epoch freshness tracking already
        guards against.
        """
        msk, pk = self._require_msk(), self._require_pk()
        if not members:
            raise EnclaveError("cannot recover from an empty partition")
        usk = ibbe.extract(msk, pk, members[0])
        ct = ibbe.IbbeCiphertext.decode(self._group, ciphertext)
        bk = ibbe.decrypt(pk, usk, list(members), ct)
        gk = self.track_secret(unwrap_group_key(
            bk.digest(), envelope, aad=group_id.encode("utf-8")
        ))
        if self._refused_gk.pop(group_id, sha256(gk)) != sha256(gk):
            raise EnclaveError("rollback detected: a replayed sealed gk")
        return self._seal_group_key(group_id, gk)

    @ecall(batchable=True)
    def rekey_group(self, group_id: str,
                    partitions: Sequence[Sequence[str]],
                    ) -> Tuple[List[PartitionBlob], bytes]:
        """Refresh ``gk`` for all partitions without membership changes;
        every blob holds the header ``C1 ‖ C2`` alone (see
        :meth:`remove_user`)."""
        msk, pk = self._require_msk(), self._require_pk()
        partitions = self._checked_partitions(pk, partitions)
        return self._rotate_group_key(msk, partitions, group_id, "rekey", 0)

    # -- parallel engine (repro.par) ------------------------------------------------

    @ecall
    def prepare_workers(self) -> int:
        """Start every pool worker (decode the public key, build tables)
        ahead of real work, so pool start-up never lands inside a measured
        group operation.  Returns the worker count."""
        return self._worker_pool().warm()

    def _worker_pool(self) -> WorkerPool:
        """The lazily-created engine pool (needs the public key).

        Worker processes rebuild their context from wire format
        (``init_worker``): the preset name and the *public* key bytes —
        never γ, ``g`` or any group key — of which a worker decodes the
        bases only, not the h-power ladder the partition kernels don't
        touch.  The serial path installs this enclave's own objects
        inline instead.
        """
        if self._pool is None:
            pk, group = self._require_pk(), self._group
            self._pool = WorkerPool(
                self._workers,
                initializer=par_kernels.init_worker,
                initargs=(group.params.name, pk.encode()),
                inline_initializer=lambda: par_kernels.set_context(group, pk),
                registry=self.meter.registry,
            )
        return self._pool

    @staticmethod
    def _checked_partitions(pk, partitions: Sequence[Sequence[str]],
                            ) -> List[List[str]]:
        """Host-supplied member lists, copied and each checked as a
        broadcast set (non-empty, within ``m``, duplicate-free)."""
        partitions = [list(members) for members in partitions]
        for members in partitions:
            ibbe.check_broadcast_set(pk, members)
        return partitions

    def _rotate_group_key(self, msk, partitions: Sequence[Sequence[str]],
                          group_id: str, stream: str, with_c3: int,
                          ) -> Tuple[List[PartitionBlob], bytes]:
        """A fresh ``gk`` enveloped for every partition, and sealed."""
        gk = self.track_secret(self.rng.random_bytes(GROUP_KEY_SIZE))
        blobs = self._build_partitions(msk, partitions, gk, group_id,
                                       stream, with_c3)
        return blobs, self._seal_group_key(group_id, gk)

    def _build_partitions(self, msk, partitions: Sequence[Sequence[str]],
                          gk: bytes, group_id: str, stream: str,
                          with_c3: int) -> List[PartitionBlob]:
        """The per-partition loop of Algorithms 1-3 on the parallel
        engine, over already checked member lists.

        Phase 1 (workers, public): hash every member identity.
        Phase 2 (enclave, γ): fold hashes into ``∏(γ + H(u)) mod q``.
        Phase 3 (workers, public bases): the exponentiations and the
        pairing-free broadcast key, randomness derived by partition
        index from one parent seed under the ``stream`` label
        (byte-identical at any worker count); the first ``with_c3``
        partitions also get their aggregate ``C3``.  The tasks go out
        as ``workers`` contiguous chunks, each one tabled-sum batch —
        one batch for the whole operation on the serial path.
        Phase 4 (enclave, gk): EPC accounting + envelope wrap, in order.
        """
        with _span("enclave.build_partitions", partitions=len(partitions),
                   stream=stream, workers=self._workers):
            pool = self._worker_pool()
            hashes = pool.run(par_kernels.hash_members_task,
                              [tuple(members) for members in partitions])
            parent = self.rng.random_bytes(32)
            tasks = [
                (ibbe.aggregate_exponent(msk, self._group.q, member_hashes),
                 derive_seed(parent, index, stream), index < with_c3)
                for index, member_hashes in enumerate(hashes)
            ]
            bounds = [len(tasks) * i // self._workers
                      for i in range(self._workers + 1)]
            results = [result for chunk in pool.run(
                par_kernels.build_partition_task,
                [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo],
            ) for result in chunk]
            aad = group_id.encode("utf-8")
            blobs = []
            for members, (ct_bytes, bk_digest) in zip(partitions, results):
                self._account_members(members)
                blobs.append(PartitionBlob(
                    ciphertext=ct_bytes,
                    envelope=wrap_group_key(bk_digest, gk, self.rng, aad=aad),
                ))
            return blobs

    # -- internals -----------------------------------------------------------------

    def _account_epc(self, nbytes: int, write: bool = False) -> None:
        """Charge the EPC model for a transient working set.

        Ciphertexts and member lists crossing the boundary are staged in
        enclave memory; accounting them keeps the §III-B comparison (tiny
        IBBE metadata vs EPC-thrashing HE metadata) measurable at the
        system level (``device.epc.stats``).
        """
        if nbytes <= 0:
            return
        handle = self.epc_allocate(nbytes)
        try:
            self.epc_touch(handle, nbytes, write=write)
        finally:
            self.device.epc.free(handle)
            self._epc_regions.remove(handle)

    def _account_members(self, members: Sequence[str]) -> None:
        """Charge a member list staged in enclave memory, with the
        partition state built from it."""
        self._account_epc(
            sum(len(m.encode("utf-8")) for m in members) + 256, write=True)

    def _seal_group_key(self, group_id: str, gk: bytes) -> bytes:
        """Seal gk with a monotonic version for rollback protection."""
        counter_id = f"gk:{group_id}"
        if not self._counters.exists(counter_id):
            self._counters.create(counter_id)
        version = self._counters.increment(counter_id)
        self._seal_counters[group_id] = version
        payload = version.to_bytes(8, "big") + gk
        return self.seal_data(payload, aad=b"gk:" + group_id.encode("utf-8"))

    def _unseal_group_key(self, group_id: str, sealed: bytes) -> bytes:
        payload = self.unseal_data(sealed,
                                   aad=b"gk:" + group_id.encode("utf-8"))
        version = int.from_bytes(payload[:8], "big")
        current = self._seal_counters.get(group_id)
        if current is None:
            # Fresh enclave instance (e.g. after a restart): fall back to
            # the platform counter, which outlives the enclave.
            counter_id = f"gk:{group_id}"
            if self._counters.exists(counter_id):
                current = self._counters.read(counter_id)
                self._seal_counters[group_id] = current
        if current is not None and version < current:
            self._refused_gk[group_id] = sha256(payload[8:])
            raise SealingError(
                f"rollback detected: sealed group key version {version} is "
                f"older than the counter {current}"
            )
        return payload[8:]

    def _require_msk(self) -> ibbe.IbbeMasterSecret:
        if self._msk is None:
            raise EnclaveError("system not set up: call setup_system first")
        return self._msk

    def _require_pk(self) -> ibbe.IbbePublicKey:
        if self._pk is None:
            raise EnclaveError("system not set up: call setup_system first")
        return self._pk
