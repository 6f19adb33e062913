"""Sharded multi-enclave deployment with kill-any-shard failover.

:class:`ShardedSystem` runs ``N`` complete enclave instances — each with
its own :class:`~repro.sgx.SgxDevice`, EPC, monotonic counters and
sealed master-secret copy — against one shared cloud store, and
partitions groups across them by rendezvous hash
(:class:`~repro.shard.ring.ShardRing`).  The three pillars:

**Provisioning.**  Shard 0 runs IBBE system setup; every other shard
receives the master secret through the MAGE-style mutual-attestation
exchange of :func:`repro.sgx.attestation.provision_master_secret` — each
enclave checks the peer's IAS-signed report against the pinned IAS key
in its *measured* configuration and requires the peer's measurement to
equal its own.  Each shard then holds the MSK sealed under its own device
fuse key, so it can restart without repeating the migration.  The
deployment's one Auditor certifies every shard's enclave, and users get
their keys from any of them over the certified channel of Fig. 3.

**Routing.**  Admin operations and client syncs for a group go to the
shard that owns it.  One :class:`~repro.shard.rng.GroupRoutedRng` is
shared by every device, enclave and administrator, and each routed
operation runs inside ``rng.scoped("group:<id>")`` — which makes a
group's cloud bytes a pure function of the master seed, the group id
and the group's own operation sequence.  ``ShardedSystem(N)`` is
therefore *byte-identical per group* to the single-enclave deployment
(``ShardedSystem(1)``, whose one shard is a plain
:class:`repro.System`) for every ``N``, placement and interleaving.
All shards share one admin signing key (ECDSA nonces are RFC 6979
deterministic, so signatures don't depend on which shard signs).

**Failover.**  :meth:`kill_shard` destroys a shard's enclave in place
(EPC freed, secrets scrubbed); the device — and with it the monotonic
counters guarding sealed-blob freshness — survives, as on real
hardware.  The router detects the dead shard on the next routed
operation (or an explicit :meth:`health` probe) and respawns it:
:meth:`repro.System.restart_enclave` reloads the measured
configuration and unseals the MSK, keeping the administrator's group
cache — it holds committed state only, since a plan the death
interrupted dropped its group for the retry to reload; then the shard
*re-attests* to a live peer (retried through a
:class:`~repro.faults.RetryPolicy`, since injected ``attest.fail``
faults raise the retryable
:class:`~repro.errors.TransientAttestationError`) before serving a
single operation.  Respawn consumes only control-scope randomness, so
a post-failover group continues byte-for-byte where it left off.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Dict, List, Optional

from repro.cloud import CloudStore, CloudStoreProtocol
from repro.core import GroupClient
from repro.crypto import ecdsa
from repro.deploy import System, assemble_system, fresh_setup
from repro.errors import EnclaveError, ValidationError
from repro.faults.retry import RetryPolicy
from repro.obs import MetricSource
from repro.obs.export import telemetry_snapshot
from repro.pairing import PairingGroup, preset
from repro.sgx import SgxDevice
from repro.sgx.attestation import mutual_attest
from repro.sgx.auditor import Auditor
from repro.sgx.ias import IntelAttestationService
from repro.shard.ring import ShardRing
from repro.shard.rng import GroupRoutedRng


@dataclass
class Shard:
    """One enclave instance of a sharded deployment.

    ``system`` is a full single-enclave :class:`repro.System` from the
    same :func:`repro.deploy.assemble_system` every deployment uses
    (certified by the deployment's Auditor like any other), so the
    shard inherits the whole restart machinery.  ``attested`` gates
    serving: a shard that has not completed its (re-)attestation
    handshake never sees an operation.
    """

    index: int
    shard_id: str
    system: System
    alive: bool = True
    attested: bool = False
    respawns: int = 0

    @property
    def enclave(self):
        return self.system.enclave

    @property
    def admin(self):
        return self.system.admin


class ShardedSystem:
    """``N`` mutually attested enclave shards over one cloud store."""

    def __init__(self, nshards: int = 2,
                 partition_capacity: int = 1000,
                 params: str = "std160",
                 seed: str = "shard",
                 cloud: Optional[CloudStoreProtocol] = None,
                 auto_repartition: bool = True,
                 system_bound: Optional[int] = None,
                 workers: Optional[int] = None) -> None:
        if nshards < 1:
            raise ValidationError("nshards must be >= 1")
        self.seed = seed
        self.rng = GroupRoutedRng(seed)
        self.ring = ShardRing([f"shard-{i}" for i in range(nshards)])
        self.cloud = cloud if cloud is not None else CloudStore()
        # The IAS is what the shards trust each other under (its report
        # key is pinned in every shard's measured configuration), the
        # Auditor what users trust them under; each draws its identity
        # from a dedicated stream, so neither perturbs group bytes.
        self.ias = IntelAttestationService(rng=self.rng.stream("ias"))
        self.auditor = Auditor(self.ias, rng=self.rng.stream("auditor"))
        # One signing key for every shard's administrator: clients verify
        # group metadata under a single key no matter which shard signed
        # it, and RFC 6979 nonces keep the signatures shard-independent.
        signing_key = ecdsa.generate_keypair(
            self.rng.stream("admin-signing"))
        # Attestation handshakes consult the ambient fault injector at
        # several sites per attempt, so give the exchange more headroom
        # than cloud I/O gets: an exhausted handshake aborts deployment.
        self.retry_policy = RetryPolicy(max_attempts=8,
                                        seed=f"shard:{seed}")
        self._groups: Dict[str, int] = {}

        with self.rng.scoped("setup"):
            first = assemble_system(
                group=PairingGroup(preset(params)),
                device=self._device(0), ias=self.ias,
                auditor=self.auditor, cloud=self.cloud, rng=self.rng,
                msk=fresh_setup(system_bound or partition_capacity),
                signing_key=signing_key,
                partition_capacity=partition_capacity,
                auto_repartition=auto_repartition, workers=workers,
            )
        self.public_key = first.public_key
        # The setup shard is trusted by construction; every other shard
        # joins it — MSK by mutual attestation, retried as a whole on
        # transient (injected) failures — and serves only once attested.
        self.shards: List[Shard] = [
            Shard(index=0, shard_id="shard-0", system=first, attested=True)]
        for index in range(1, nshards):
            joined = first.join(self._device(index), self.rng,
                                auto_repartition=auto_repartition,
                                retry=self.retry_policy)
            self.shards.append(Shard(index=index, shard_id=f"shard-{index}",
                                     system=joined, attested=True))

    # -- construction -----------------------------------------------------------

    def _device(self, index: int) -> SgxDevice:
        # Deterministic per-shard device secret: fuse/attestation keys
        # (and hence device ids) are a function of (seed, index), never
        # of the shared rng — manufacturing draws no group bytes.
        secret = sha256(
            f"repro:shard-device:{self.seed}:{index}".encode()).digest()
        return SgxDevice(rng=self.rng, device_secret=secret)

    # -- routing ----------------------------------------------------------------

    @property
    def nshards(self) -> int:
        return len(self.shards)

    def owner(self, group_id: str) -> int:
        """Index of the shard owning ``group_id``."""
        return self.ring.owner(group_id)

    def _serving_shard(self, group_id: str) -> Shard:
        """The owning shard, respawned and re-attested if found dead.

        This is the failover path: detection happens on the routed
        operation itself, *before* the group scope is entered, so the
        recovery handshake's randomness stays in the control scope.
        """
        shard = self.shards[self.owner(group_id)]
        if not shard.alive:
            self.respawn_shard(shard.index)
        if not shard.attested:
            raise EnclaveError(
                f"{shard.shard_id} has not completed attestation")
        return shard

    # -- group operations (each runs in its group's rng scope) ------------------

    def create_group(self, group_id: str, members: List[str]):
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            state = shard.admin.create_group(group_id, members)
        self._groups[group_id] = shard.index
        return state

    def add_user(self, group_id: str, identity: str):
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            return shard.admin.add_user(group_id, identity)

    def remove_user(self, group_id: str, identity: str):
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            return shard.admin.remove_user(group_id, identity)

    def rekey(self, group_id: str) -> None:
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            shard.admin.rekey(group_id)

    def delete_group(self, group_id: str) -> None:
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            shard.admin.delete_group(group_id)
        self._groups.pop(group_id, None)

    def group_state(self, group_id: str):
        return self._serving_shard(group_id).admin.group_state(group_id)

    def group_ids(self) -> List[str]:
        return sorted(self._groups)

    # -- clients ----------------------------------------------------------------

    def _live_system(self) -> System:
        """Any serving shard's deployment: key extraction is
        deterministic in (MSK, identity) and clients only ever read the
        shared store, so which shard provisions them does not matter."""
        return next(s for s in self.shards if s.alive and s.attested).system

    def user_key(self, identity: str):
        """Provision (and cache) a user's IBBE secret key."""
        return self._live_system().user_key(identity)

    def make_client(self, group_id: str, identity: str) -> GroupClient:
        """A client of ``group_id``; syncs hit the shared cloud store, so
        clients are oblivious to shard placement and failover."""
        return self._live_system().make_client(group_id, identity)

    # -- failure and recovery ---------------------------------------------------

    def kill_shard(self, index: int) -> None:
        """Crash a shard in place: its enclave is destroyed (EPC freed,
        secrets scrubbed) but its device — sealed blobs' fuse key and the
        monotonic counters — survives, as on a real machine."""
        shard = self.shards[index]
        shard.enclave.destroy()
        shard.alive = False
        shard.attested = False

    def respawn_shard(self, index: int) -> Shard:
        """Bring a dead shard back: restart the enclave from its measured
        config + sealed MSK (the committed group cache is kept, nothing
        is read from the store) and re-attest to a live peer before
        serving."""
        shard = self.shards[index]
        shard.system.restart_enclave()
        shard.alive = True
        shard.respawns += 1
        peer = next(
            (s for s in self.shards
             if s.index != index and s.alive and s.attested), None)
        if peer is not None:
            self.retry_policy.run(
                lambda: mutual_attest(peer.enclave, shard.enclave, self.ias),
                label=f"reattest:{shard.shard_id}",
            )
        # With no live peer (or N=1) the sealed MSK is the trust anchor:
        # only the genuine measured build on this device can unseal it.
        shard.attested = True
        return shard

    # -- health -----------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Probe every shard (a cheap ecall) and report worst-of status:
        ``ok`` when all shards serve, ``degraded`` otherwise."""
        shards = []
        all_ok = True
        for shard in self.shards:
            probe_ok = True
            try:
                shard.enclave.call("get_public_key")
            except EnclaveError:
                probe_ok = False
            ok = probe_ok and shard.alive and shard.attested
            all_ok = all_ok and ok
            shards.append({
                "shard": shard.shard_id,
                "alive": shard.alive and probe_ok,
                "attested": shard.attested,
                "respawns": shard.respawns,
                "groups": sorted(g for g, i in self._groups.items()
                                 if i == shard.index),
            })
        return {"status": "ok" if all_ok else "degraded",
                "nshards": self.nshards, "shards": shards}

    # -- observability ----------------------------------------------------------

    def metric_sources(self) -> List[MetricSource]:
        """Every shard's :meth:`repro.System.metric_sources`.  Names
        collide across shards (merged views keep the last shard's
        ``sgx.*`` / ``admin.*`` numbers); use :meth:`total_crossings`
        for deployment-wide sums."""
        return [source for shard in self.shards
                for source in shard.system.metric_sources()]

    def total_crossings(self) -> int:
        """Enclave boundary crossings summed over all shards (the merge
        in :meth:`telemetry` overwrites same-named counters instead)."""
        return sum(shard.enclave.meter.crossings for shard in self.shards)

    def telemetry(self) -> Dict[str, Any]:
        return telemetry_snapshot(self.metric_sources())

    def close(self) -> None:
        for shard in self.shards:
            shard.system.close()
            shard.alive = False
