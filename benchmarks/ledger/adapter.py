"""The one file of the ledger that imports ``repro``.

Everything the benchmark pins of the library is named here, in two
parts: the *deployment surface* the workloads drive (names from
``repro.__all__`` / ``docs/API.md`` only) and the *layer boundaries*
``trace.py`` wraps from outside in the traced pass.  A refactor that
moves or renames one of these breaks the ledger here and nowhere else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any, List, Tuple

#: Root of the checkout (``benchmarks/ledger/adapter.py`` → two levels up).
ROOT = Path(__file__).resolve().parents[2]

# The numbers must be what a user with default settings gets: drop the
# library's environment switches before it is imported (REPRO_TELEMETRY
# is read at import time).
SCRUBBED_ENV = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in SCRUBBED_ENV:
    del os.environ[_name]

# Always measure this checkout's sources, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro
except ImportError as exc:  # the driver also runs us where src/ is absent
    sys.exit(f"ledger: cannot import repro from {ROOT / 'src'}: {exc}")

from repro import (  # noqa: E402
    CloudStore,
    RemoteCloudStore,
    ReproError,
    ShardedSystem,
    quickstart_system,
)
from repro import ibbe as _ibbe  # noqa: E402
from repro.cloud import CloudBatch, FileCloudStore  # noqa: E402
from repro.core import GroupAdministrator, GroupClient  # noqa: E402
from repro.crypto import DeterministicRng  # noqa: E402
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey  # noqa: E402
from repro.ec.curve import Curve, Point  # noqa: E402
from repro.enclave_app import IbbeEnclave  # noqa: E402
from repro.net import ServerThread  # noqa: E402
from repro.pairing.group import G1Element, GTElement, PairingGroup  # noqa: E402
from repro.par import WorkerPool  # noqa: E402
from repro.sgx import Enclave  # noqa: E402
from repro.shard import system as _shard_system  # noqa: E402

__all__ = [
    "ROOT", "SCRUBBED_ENV", "VERSION", "ReproError",
    "quickstart_system", "ShardedSystem", "DeterministicRng",
    "CloudStore", "FileCloudStore", "CloudBatch",
    "ServerThread", "RemoteCloudStore", "trace_targets",
]

VERSION = repro.__version__


def _ecall_names() -> List[str]:
    return sorted(
        name for name in dir(IbbeEnclave)
        if getattr(getattr(IbbeEnclave, name, None), "__is_ecall__", False)
    )


def trace_targets() -> List[Tuple[str, str, Any, str]]:
    """``(layer, entry, owner, attribute)`` for every boundary the traced
    pass wraps.  ``owner`` is a class or a module; ``trace.py`` replaces
    ``owner.attribute`` and restores it afterwards.

    The ecall wrappers only take effect when installed before the first
    enclave is built (the ecall registry snapshots the handlers once per
    class), which is why the traced pass is the first thing a traced
    process does.  ``repro.fields`` has no boundary cheap enough to time
    from outside; its time is inside ``pairing.pair`` / ``ec.*``.
    """
    targets: List[Tuple[str, str, Any, str]] = [
        ("ec", "mul", Point, "__mul__"),
        ("ec", "mul", Point, "__rmul__"),
        ("ec", "multi_mul", Curve, "multi_mul"),
        ("ec", "mul_generator", Curve, "mul_generator"),
        ("ec", "decode", Point, "decode"),
        ("pairing", "pair", PairingGroup, "pair"),
        ("pairing", "multi_mul_g1", PairingGroup, "multi_mul_g1"),
        ("pairing", "hash_to_scalar", PairingGroup, "hash_to_scalar"),
        ("pairing", "g1_pow", G1Element, "__pow__"),
        ("pairing", "gt_pow", GTElement, "__pow__"),
        ("ibbe", "prepare_decryption", _ibbe, "prepare_decryption"),
        ("ibbe", "decrypt_with_hint", _ibbe, "decrypt_with_hint"),
        ("ibbe", "extract", _ibbe, "extract"),
        ("ibbe", "add_user_msk", _ibbe, "add_user_msk"),
        ("crypto", "sign", EcdsaPrivateKey, "sign"),
        ("crypto", "verify", EcdsaPublicKey, "verify"),
        ("sgx", "call", Enclave, "call"),
        ("sgx", "call_batch", Enclave, "call_batch"),
        ("sgx", "seal_data", Enclave, "seal_data"),
        ("sgx", "unseal_data", Enclave, "unseal_data"),
        ("core.admin", "create_group", GroupAdministrator, "create_group"),
        ("core.admin", "add_user", GroupAdministrator, "add_user"),
        ("core.admin", "remove_user", GroupAdministrator, "remove_user"),
        ("core.admin", "delete_group", GroupAdministrator, "delete_group"),
        ("core.admin", "load_group_from_cloud", GroupAdministrator,
         "load_group_from_cloud"),
        ("core.admin", "repartition", GroupAdministrator, "repartition"),
        ("core.client", "sync", GroupClient, "sync"),
        ("core.client", "current_group_key", GroupClient,
         "current_group_key"),
        ("core.client", "decrypt", GroupClient, "decrypt_partition"),
        ("shard", "create_group", ShardedSystem, "create_group"),
        ("shard", "add_user", ShardedSystem, "add_user"),
        ("shard", "delete_group", ShardedSystem, "delete_group"),
        ("shard", "respawn", ShardedSystem, "respawn_shard"),
        # respawn_shard reaches repro.sgx.mutual_attest through the
        # name its own module imported.
        ("shard", "attest", _shard_system, "mutual_attest"),
        ("par", "run", WorkerPool, "run"),
    ]
    for name in _ecall_names():
        targets.append(("enclave_app", name, IbbeEnclave, name))
    for method in ("commit", "get_many", "poll_dir", "compact", "get", "put"):
        targets.append(("cloud", method, CloudStore, method))
    for method in ("commit", "get_many", "poll_dir", "compact"):
        targets.append(("cloud", f"file_{method}", FileCloudStore, method))
    for method in ("commit", "get_many", "poll_dir", "get", "put"):
        targets.append(("net", method, RemoteCloudStore, method))
    return targets
