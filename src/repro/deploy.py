"""The composition root: :func:`assemble_system` wires every deployment.

The paper has one architecture (Fig. 5: administrator → enclave → cloud,
clients reading the cloud).  :func:`quickstart_system`, every shard of
:class:`~repro.shard.ShardedSystem`, the CLI and the harnesses' second
administrators all build it through this one function and differ only in
the **master-secret source** (:func:`fresh_setup`, :func:`unseal`, or
attested hand-over from a peer, :meth:`System.join`).  Trust is
established one way: every enclave pins the IAS report key in its
measured configuration (what peers attest each other under, MAGE), and
every deployment has an :class:`~repro.sgx.auditor.Auditor` whose
certificate users check before asking the enclave for their key (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import ibbe
from repro.cloud import CloudStore, CloudStoreProtocol
from repro.core import GroupAdministrator, GroupClient
from repro.crypto import Rng, SystemRng, ecdsa
from repro.ec import precomp_registry
from repro.enclave_app import IbbeEnclave
from repro.faults.retry import RetryPolicy
from repro.obs import MetricSource
from repro.obs.export import telemetry_snapshot
from repro.pairing import PairingGroup, preset
from repro.pairing.group import G1Element
from repro.par import resolve_workers
from repro.sgx import SgxDevice
from repro.sgx.attestation import (
    provision_master_secret,
    provision_user_key,
    setup_trust,
)
from repro.sgx.auditor import Auditor, EnclaveCertificate
from repro.sgx.ias import IntelAttestationService

#: How the master secret reaches a freshly loaded enclave: called with
#: the enclave, returns ``(public key, this enclave's sealed MSK copy)``.
MskSource = Callable[[IbbeEnclave], Tuple[ibbe.IbbePublicKey, bytes]]


@dataclass
class System:
    """A fully wired IBBE-SGX deployment (device, enclave, trust chain,
    administrator, cloud) — the paper's Fig. 5 in one object."""

    group: PairingGroup
    device: SgxDevice
    enclave: IbbeEnclave
    ias: IntelAttestationService
    auditor: Auditor
    cloud: CloudStoreProtocol
    admin: GroupAdministrator
    certificate: EnclaveCertificate
    public_key: ibbe.IbbePublicKey
    sealed_msk: bytes
    rng: Rng
    #: The enclave's load-time configuration, kept so the deployment can
    #: survive a full enclave restart (:meth:`restart_enclave`).
    enclave_config: Dict[str, Any]
    #: Parallel-engine worker count the enclave was configured with
    #: (``repro.par``; 1 = serial).  Results are byte-identical for any
    #: value — this changes wall-clock only.
    workers: int = 1
    _user_keys: Dict[str, ibbe.IbbeUserKey] = field(default_factory=dict)
    _clients: List[GroupClient] = field(default_factory=list)

    def user_key(self, identity: str) -> ibbe.IbbeUserKey:
        """Provision (and cache) a user's IBBE secret key over the
        attested channel of Fig. 3."""
        if identity not in self._user_keys:
            raw = provision_user_key(
                self.enclave, self.certificate,
                self.auditor.ca_public_key, identity, self.rng,
            )
            self._user_keys[identity] = ibbe.IbbeUserKey(
                identity=identity,
                element=G1Element.decode(self.group, raw),
            )
        return self._user_keys[identity]

    def make_client(self, group_id: str, identity: str) -> GroupClient:
        client = GroupClient(
            group_id=group_id,
            identity=identity,
            user_key=self.user_key(identity),
            public_key=self.public_key,
            cloud=self.cloud,
            admin_verification_key=self.admin.verification_key,
        )
        self._clients.append(client)
        return client

    def join(self, device: SgxDevice, rng: Rng,
             auto_repartition: bool = True,
             retry: Optional[RetryPolicy] = None) -> "System":
        """A further administrator: its own identically configured (hence
        identically measured) enclave on ``device``, sharing this
        deployment's store, trust roots and organisational signing key.

        The master secret arrives by attested hand-over (paper §VIII,
        :mod:`repro.core.multiadmin`): the two enclaves attest each
        other against the pinned IAS key (MAGE) and the newcomer seals
        its own copy, so it restarts like any other; ``retry`` reruns
        that whole exchange on transient failures.
        """
        def hand_over(enclave):
            def exchange() -> bytes:
                return provision_master_secret(
                    self.enclave, enclave, self.ias, self.public_key)

            sealed = (retry.run(exchange, label="provision")
                      if retry is not None else exchange())
            return self.public_key, sealed

        return assemble_system(
            group=self.group, device=device, ias=self.ias,
            auditor=self.auditor, cloud=self.cloud, rng=rng, msk=hand_over,
            signing_key=self.admin._signing_key,
            partition_capacity=self.admin.partition_capacity,
            auto_repartition=auto_repartition,
            workers=self.workers,
        )

    def rebind_store(self, cloud: CloudStoreProtocol) -> None:
        """Point the administrator and every client at ``cloud`` — for a
        restarted process re-opening its store (the chaos driver after a
        crash, the cold-start bench).  Everything else passes ``cloud=``
        when the deployment is built."""
        self.cloud = cloud
        self.admin.cloud = cloud
        for client in self._clients:
            client._cloud = cloud

    # -- observability ----------------------------------------------------------

    def metric_sources(self) -> List[MetricSource]:
        """Every :class:`~repro.obs.MetricSource` in this deployment:
        the enclave's ``sgx.*`` meter (which carries the ``par.*`` engine
        metrics), the cloud's ``cloud.*`` metrics, the administrator's
        ``admin.*`` registry (which includes its cache accounting), the
        process-wide ``ec.precomp.*`` fixed-base table counters and each
        client's ``client.*`` registry."""
        sources: List[MetricSource] = [
            self.enclave.meter.registry,
            self.cloud.metrics.registry,
            self.admin.metrics.registry,
            precomp_registry,
        ]
        sources.extend(client.registry for client in self._clients)
        return sources

    def restart_enclave(self) -> None:
        """Full enclave restart: destroy → fresh load → unseal.

        Models the recovery a real deployment runs after an enclave
        crash, host reboot, or migration (the seamless-restart story of
        ReplicaTEE): the running enclave is torn down, a new one is
        loaded with the *same measured configuration* and the sealed MSK
        is unsealed back into it.  The administrator's group cache is
        kept as it is: it holds only committed state (a failed plan drops
        its group), a restart changes neither the cloud nor host memory,
        and the cached sealed group keys unseal on the same device and
        measurement.  Sealing and the attested identity key are bound to
        the measurement, not the instance, so the Auditor's certificate
        remains valid and users need no re-attestation.  A shard still
        re-attests to a peer
        (:meth:`repro.shard.ShardedSystem.respawn_shard`): a new instance
        starts with an empty peer registry.  The new enclave tables
        ``w``, ``v`` and ``h`` and leaves ``g``'s table to its first
        user-key extraction.
        """
        self.enclave.destroy()
        enclave = IbbeEnclave.load(self.device, self.enclave_config)
        enclave.call("restore_system", self.sealed_msk, self.public_key)
        self.enclave = enclave
        self.admin.enclave = enclave

    def close(self) -> None:
        """Tear the deployment down: forgets its clients and destroys the
        enclave, which shuts down its worker pool and scrubs tracked
        secrets.  Idempotent."""
        self._clients.clear()
        self.enclave.destroy()

    def telemetry(self) -> Dict[str, Any]:
        """Aggregated observability snapshot of the whole deployment.

        Returns ``{"metrics": {dotted name: value}, "trace": {...}}`` —
        the merged :meth:`metric_sources` plus a summary of the spans the
        global tracer has collected (empty unless tracing is enabled via
        ``repro.obs.enable()`` or ``REPRO_TELEMETRY=1``).  Client
        registries share the ``client.*`` names, so with several clients
        the merged view reflects the most recently created one; read
        ``client.registry`` directly for per-client numbers.
        """
        return telemetry_snapshot(self.metric_sources())

    def reset_metrics(self) -> None:
        """Zero every metric source (spans are left to the tracer)."""
        for source in self.metric_sources():
            source.reset()


# -- assembly ----------------------------------------------------------------

def fresh_setup(bound: int) -> MskSource:
    """IBBE system setup (Fig. 6a) inside the new enclave; ``bound`` is
    the maximal partition size ``m``."""
    return lambda enclave: enclave.call("setup_system", bound)


def unseal(sealed_msk: bytes, public_key: ibbe.IbbePublicKey) -> MskSource:
    """Restore a master secret this platform sealed earlier (a restarted
    process; sealing binds to device and measurement)."""
    def install(enclave):
        enclave.call("restore_system", sealed_msk, public_key)
        return public_key, sealed_msk

    return install


def assemble_system(*, group: PairingGroup, device: SgxDevice,
                    ias: IntelAttestationService, auditor: Auditor,
                    cloud: CloudStoreProtocol, rng: Rng, msk: MskSource,
                    partition_capacity: int,
                    signing_key: Optional[ecdsa.EcdsaPrivateKey] = None,
                    auto_repartition: bool = True,
                    workers: Optional[int] = None) -> System:
    """Wire one enclave + administrator stack against ``cloud``:
    register ``device`` with ``ias`` (manufacturing), load the enclave,
    have ``auditor`` certify it (Fig. 3), obtain the master secret from
    ``msk`` and hand the enclave to a :class:`GroupAdministrator`.

    ``signing_key`` is the key clients verify metadata under; ``None``
    draws a fresh one from ``rng`` (after the master-secret step, the
    order every seeded digest depends on).  ``workers`` configures the
    enclave's parallel engine (performance only, unmeasured).
    """
    ias.register_device(device.device_id, device.attestation_public_key)
    worker_count = resolve_workers(workers)
    # The IAS key is pinned inside the measurement: the enclave releases
    # its master secret only to peers attested under this exact key
    # (MAGE — swapping it means running a different, rejectable build).
    # The Auditor is the users' CA and never enters the enclave.
    enclave_config = {
        "pairing_group": group,
        "ias_report_key": ias.report_public_key.encode().hex(),
        "workers": worker_count,
    }
    enclave = IbbeEnclave.load(device, enclave_config)
    auditor.approve_measurement(enclave.measurement)
    certificate = setup_trust(enclave, auditor)
    public_key, sealed_msk = msk(enclave)
    admin = GroupAdministrator(
        enclave=enclave,
        cloud=cloud,
        signing_key=signing_key or ecdsa.generate_keypair(rng),
        partition_capacity=partition_capacity,
        rng=rng,
        auto_repartition=auto_repartition,
    )
    return System(
        group=group, device=device, enclave=enclave, ias=ias,
        auditor=auditor, cloud=cloud, admin=admin, certificate=certificate,
        public_key=public_key, sealed_msk=sealed_msk, rng=rng,
        enclave_config=enclave_config, workers=worker_count,
    )


def quickstart_system(partition_capacity: int = 1000,
                      params: str = "std160",
                      rng: Optional[Rng] = None,
                      cloud: Optional[CloudStoreProtocol] = None,
                      auto_repartition: bool = True,
                      system_bound: Optional[int] = None,
                      workers: Optional[int] = None) -> System:
    """Stand up a complete single-admin deployment: manufacturing
    (device + IAS), an Auditor and a fresh system setup
    (Fig. 6a, Fig. 3), against ``cloud`` — any
    :class:`~repro.cloud.CloudStoreProtocol` store; a new in-memory
    :class:`~repro.cloud.CloudStore` by default (pass
    ``CloudStore(latency=...)`` for a latency model).

    ``system_bound`` is the enclave's maximal partition size ``m`` (the
    IBBE public key is linear in it); it defaults to ``partition_capacity``
    and must be raised at setup time if partitions may later grow (e.g.
    under the adaptive-sizing extension).

    ``workers`` configures the enclave's parallel engine (:mod:`repro.par`)
    for partition-independent work — ``None`` defers to ``REPRO_WORKERS``,
    else serial.  Any worker count produces byte-identical results.
    """
    rng = rng or SystemRng()
    device = SgxDevice(rng=rng)
    ias = IntelAttestationService(rng=rng)
    return assemble_system(
        group=PairingGroup(preset(params)), device=device, ias=ias,
        auditor=Auditor(ias, rng=rng),
        cloud=cloud if cloud is not None else CloudStore(), rng=rng,
        msk=fresh_setup(system_bound or partition_capacity),
        partition_capacity=partition_capacity,
        auto_repartition=auto_repartition,
        workers=workers,
    )
