"""IBBE-SGX — cryptographic group access control using trusted execution
environments.

A from-scratch Python reproduction of Contiu et al., DSN 2018.

Quickstart::

    from repro import quickstart_system

    system = quickstart_system(partition_capacity=4)
    admin, cloud = system.admin, system.cloud
    admin.create_group("team", ["alice", "bob", "carol"])
    alice = system.make_client("team", "alice")
    alice.sync()
    gk = alice.current_group_key()   # 32-byte shared group key

See the ``examples/`` directory for end-to-end scenarios and ``DESIGN.md``
for the architecture and experiment index.
"""

from __future__ import annotations

from repro.cloud import CloudStore, CloudStoreProtocol, LatencyModel
from repro.core import GroupAdministrator, GroupClient
from repro.deploy import System, assemble_system, quickstart_system
from repro.enclave_app import IbbeEnclave
from repro.errors import ReproError
from repro.net import RemoteCloudStore, StoreServer, connect_store
from repro.obs import (
    MetricRegistry,
    MetricSource,
    Span,
    Tracer,
    merge_snapshots,
    telemetry_snapshot,
    tracer,
)
from repro.pairing import PairingGroup, preset, std160, toy64
from repro.sgx import Auditor, IntelAttestationService, SgxDevice
from repro.shard import ShardedSystem

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "CloudStore",
    "CloudStoreProtocol",
    "RemoteCloudStore",
    "StoreServer",
    "connect_store",
    "LatencyModel",
    "GroupAdministrator",
    "GroupClient",
    "IbbeEnclave",
    "PairingGroup",
    "preset",
    "toy64",
    "std160",
    "SgxDevice",
    "IntelAttestationService",
    "Auditor",
    "System",
    "assemble_system",
    "quickstart_system",
    "ShardedSystem",
    "MetricRegistry",
    "MetricSource",
    "Span",
    "Tracer",
    "merge_snapshots",
    "telemetry_snapshot",
    "tracer",
]
