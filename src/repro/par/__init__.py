"""Parallel execution engine for partition-independent work.

The paper parallelizes IBBE-SGX group creation across enclave worker
threads (Fig. 5: bootstrap latency drops near-linearly with the thread
count).  This package is that engine for the Python substrate, where
threads cannot help (the GIL serializes the big-integer arithmetic):

* :mod:`repro.par.pool` — :class:`WorkerPool`, a process-pool executor
  with deterministic chunking and a serial in-process mode
  (``workers=1`` runs the *same* kernels inline, so worker count never
  changes results);
* :mod:`repro.par.streams` — per-task RNG streams derived by index from
  one parent seed, making parallel and serial runs byte-identical;
* :mod:`repro.par.kernels` — the picklable task functions workers
  execute, plus the per-process context (pairing group, public key,
  precomputation tables) built once at pool start-up.

Determinism contract: a kernel's output is a pure function of its task
tuple and the per-process public context.  Scheduling, chunking and the
worker count affect only *where* a task runs, never its result — the
property the CI determinism gate (serial-vs-parallel byte equivalence)
enforces.

Trust boundary: see DESIGN.md ("Parallel engine and the trust split").
γ, user keys, group keys and sealing material never serialize into task
payloads, but the partition kernel receives a member product
``∏(γ + H(u)) mod q`` and a ``k_seed``, both MSK-equivalent: the
workers that run it stand for the enclave's own threads, inside the
boundary.  Identity hashing (``hash_members_task``) is the public work.
"""

from repro.par.pool import ENV_WORKERS, WorkerPool, resolve_workers
from repro.par.streams import derive_seed, task_rng

__all__ = [
    "ENV_WORKERS",
    "WorkerPool",
    "resolve_workers",
    "derive_seed",
    "task_rng",
]
