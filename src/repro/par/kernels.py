"""Worker-process kernels and their per-process context.

Every kernel is a module-level function of one picklable task tuple, so
:class:`~repro.par.pool.WorkerPool` can ship it to worker processes.
The expensive shared inputs — the pairing group, the decoded public key
and its precomputation tables — are *not* re-shipped per task: they are
installed once per process by :func:`init_worker` (run as the pool
initializer) and read from module state.

No γ, ``g`` or group key ever enters this module.  A partition
``product`` does, and it is as secret as γ (the discrete log of ``C3``,
with γ among its roots — ``γ + H(u)`` itself for a one-member
partition): :func:`build_partition_task` runs only on the enclave's
in-boundary workers (the paper's enclave threads).  The genuinely
public kernel (:func:`hash_members_task`) needs nothing but the public
key.  See DESIGN.md ("Parallel engine and
the trust split").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.rng import DeterministicRng
from repro.errors import ParallelError
from repro.ibbe.scheme import IbbePublicKey, encrypt_aggregate
from repro.pairing.group import PairingGroup
from repro.pairing.params import preset

#: Per-process context: (pairing group, public key).  Populated by
#: :func:`init_worker` (subprocesses) or :func:`set_context` (inline).
_CONTEXT: Optional[Tuple[PairingGroup, IbbePublicKey]] = None


def set_context(group: PairingGroup, pk: IbbePublicKey) -> None:
    """Install an already-built context (the serial in-process path)."""
    global _CONTEXT
    _CONTEXT = (group, pk)


def init_worker(preset_name: str, pk_bytes: bytes) -> None:
    """Pool initializer: rebuild the context from wire-format inputs.

    Decodes only the ``(w, v, h)`` bases the partition-build kernels
    exponentiate — and tables them — skipping the ``m`` point
    decompressions of the ``h``-power ladder (one modular square root
    each — seconds for large ``m``).
    """
    group = PairingGroup(preset(preset_name))
    pk = IbbePublicKey.decode_bases(pk_bytes, group)
    pk.enable_precomputation()
    set_context(group, pk)


def _require_context() -> Tuple[PairingGroup, IbbePublicKey]:
    if _CONTEXT is None:
        raise ParallelError(
            "worker context not initialized — the pool must be created "
            "with kernels.init_worker (or set_context for inline use)"
        )
    return _CONTEXT


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def hash_members_task(members: Tuple[str, ...]) -> List[int]:
    """Identity hashing for one partition: ``[H(u) for u in members]``.

    Genuinely public work (H is a public hash into Z_q*).
    """
    _, pk = _require_context()
    return [pk.hash_identity(identity) for identity in members]


def build_partition_task(chunk: Sequence[Tuple[int, bytes, bool]]
                         ) -> List[Tuple[bytes, bytes]]:
    """A chunk of partitions' broadcast ciphertexts and key digests — the
    one kernel behind create, add, remove and re-key.

    Each task is ``(product, k_seed, with_c3)`` where ``product =
    ∏(γ + H(u)) mod q`` is the enclave-computed aggregate and ``k_seed``
    the per-partition randomness stream.  Computes eq. 3 on the tabled
    bases (:func:`~repro.ibbe.scheme.encrypt_aggregate`) and, ``with_c3``,
    the aggregate ``C3 = h^product`` — wanted when the member set changed
    (create, add, the partition a removal shrinks) and skipped by a re-key,
    which leaves the stored ``C3`` as it is.  The whole chunk is one
    ``encrypt_aggregate`` call, so all its ``C1``, ``C2`` and ``C3``
    share one tabled-sum batch; each partition's output is still a pure
    function of its own task.

    Returns ``(C1 ‖ C2 [‖ C3], SHA-256(bk))`` per task — the digest is
    what keys the AES envelope, so the broadcast key itself never leaves
    the process that derived it.
    """
    group, pk = _require_context()
    built = encrypt_aggregate(pk, [
        (product, group.random_scalar(DeterministicRng(k_seed)), with_c3)
        for product, k_seed, with_c3 in chunk])
    return [(header.encode() + (b"" if c3 is None else c3.encode()),
             bk.digest())
            for bk, header, c3 in built]
