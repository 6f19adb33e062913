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

from importlib import import_module

__version__ = "1.0.0"

#: Every public name and the sub-package (or, for a name the trusted
#: half's packages do not export, the module) that holds it, in documented
#: order.  Nothing is imported until a name is first used (PEP 562), so
#: ``import repro`` — which every ``import repro.x.y`` runs first — loads
#: this file alone: the enclave's import closure (``tests/test_tcb.py``)
#: is what the enclave imports, not what the deployment helpers do.
_HOME = {
    "ReproError": "repro.errors",
    "CloudStore": "repro.cloud",
    "CloudStoreProtocol": "repro.cloud",
    "RemoteCloudStore": "repro.net",
    "StoreServer": "repro.net",
    "connect_store": "repro.net",
    "LatencyModel": "repro.cloud",
    "GroupAdministrator": "repro.core",
    "GroupClient": "repro.core",
    "IbbeEnclave": "repro.enclave_app",
    "PairingGroup": "repro.pairing",
    "preset": "repro.pairing",
    "toy64": "repro.pairing",
    "std160": "repro.pairing",
    "SgxDevice": "repro.sgx",
    "IntelAttestationService": "repro.sgx.ias",
    "Auditor": "repro.sgx.auditor",
    "System": "repro.deploy",
    "assemble_system": "repro.deploy",
    "quickstart_system": "repro.deploy",
    "ShardedSystem": "repro.shard",
    "MetricRegistry": "repro.obs",
    "MetricSource": "repro.obs",
    "Span": "repro.obs",
    "Tracer": "repro.obs",
    "merge_snapshots": "repro.obs",
    "telemetry_snapshot": "repro.obs.export",
    "tracer": "repro.obs",
}

__all__ = [*_HOME]


def __getattr__(name: str):
    # AttributeError for anything else is what lets ``from repro import
    # ibbe`` fall through to importing the sub-package.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_HOME[name]), name)
    return value
