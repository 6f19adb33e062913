"""Worker-process kernels and their per-process context.

Every kernel is a module-level function of one picklable task tuple, so
:class:`~repro.par.pool.WorkerPool` can ship it to worker processes.
The expensive shared inputs — the pairing group, the decoded public key
and its precomputation tables — are *not* re-shipped per task: they are
installed once per process by :func:`init_worker` (run as the pool
initializer) and read from module state.

Only public material ever enters this module.  Partition products are
γ-aggregates the enclave computes and hands to its in-boundary workers
(the paper's enclave threads); the genuinely public kernels
(:func:`hash_members_task`, :func:`prepare_hint_task`) need nothing but
the public key.  See DESIGN.md ("Parallel engine and the trust split").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.crypto.rng import DeterministicRng
from repro.errors import ParallelError
from repro.ibbe.scheme import (
    IbbeCiphertext,
    IbbePublicKey,
    prepare_decryption_public,
)
from repro.pairing.group import G1Element, PairingGroup
from repro.pairing.params import preset

#: Per-process context: (pairing group, public key).  Populated by
#: :func:`init_worker` (subprocesses) or :func:`set_context` (inline).
_CONTEXT: Optional[Tuple[PairingGroup, IbbePublicKey]] = None


def set_context(group: PairingGroup, pk: IbbePublicKey) -> None:
    """Install an already-built context (the serial in-process path)."""
    global _CONTEXT
    _CONTEXT = (group, pk)


def init_worker(preset_name: str, pk_bytes: bytes,
                full_pk: bool = True) -> None:
    """Pool initializer: rebuild the context from wire-format inputs.

    ``full_pk=False`` decodes only the ``(w, v, h)`` bases the
    partition-build kernels exponentiate — and tables them — skipping
    the ``m`` point decompressions of the ``h``-power ladder (one modular
    square root each — seconds for large ``m``).  Hint kernels need the
    full key and exponentiate none of it.
    """
    group = PairingGroup(preset(preset_name))
    if full_pk:
        pk = IbbePublicKey.decode(pk_bytes, group)
    else:
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


def build_partition_task(task: Tuple[int, bytes]) -> Tuple[bytes, bytes]:
    """Assemble one partition's broadcast ciphertext and key digest.

    ``task = (product, k_seed)`` where ``product = ∏(γ + H(u)) mod q``
    is the enclave-computed aggregate and ``k_seed`` the per-partition
    randomness stream.  Computes (paper eq. 3, using only PK bases)::

        C3 = h^product      C2 = h^(product·k) = C3^k
        C1 = w^(-k)         bk = v^k

    Returns ``(ciphertext encoding, SHA-256(bk))`` — the digest is what
    keys the AES envelope, so the broadcast key itself never leaves the
    process that derived it.
    """
    group, pk = _require_context()
    product, k_seed = task
    q = group.q
    k = group.random_scalar(DeterministicRng(k_seed))
    c3 = pk.h ** product
    c2 = pk.h ** ((product * k) % q)
    c1 = pk.w ** (q - k)
    bk = pk.v ** k
    ciphertext = IbbeCiphertext(c1=c1, c2=c2, c3=c3)
    return ciphertext.encode(), bk.digest()


def rekey_partition_task(task: Tuple[bytes, bytes]) -> Tuple[bytes, bytes]:
    """Re-key one partition from its (public) aggregate ``C3``.

    ``task = (c3 encoding, k_seed)``.  The A-G re-key needs only C3 and
    the public key: ``C2 = C3^k``, ``C1 = w^(-k)``, ``bk = v^k``.
    """
    group, pk = _require_context()
    c3_bytes, k_seed = task
    c3 = G1Element.decode(group, c3_bytes)
    k = group.random_scalar(DeterministicRng(k_seed))
    ciphertext = IbbeCiphertext(
        c1=pk.w ** (group.q - k), c2=c3 ** k, c3=c3
    )
    return ciphertext.encode(), (pk.v ** k).digest()


def prepare_hint_task(task: Tuple[str, Tuple[str, ...]]) -> Tuple[bytes, int]:
    """The O(|S|²) decryption-hint expansion for one member set.

    ``task = (identity, members)``.  Public-key-only (the hint never
    involves the user's secret key), so clients can fan multi-partition
    hint preparation out to untrusted workers.  Returns
    ``(h_pi encoding, delta_inverse)``.
    """
    _, pk = _require_context()
    identity, members = task
    hint = prepare_decryption_public(pk, identity, list(members))
    return hint.h_pi.encode(), hint.delta_inverse
