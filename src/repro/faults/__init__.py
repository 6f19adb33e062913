"""``repro.faults`` — deterministic fault injection, retry, and recovery.

The robustness layer of the reproduction: seeded fault schedules
(:class:`FaultPlan` / :class:`FaultInjector`), the :class:`FaultyCloudStore`
decorator that injects them into any ``CloudStore``, the named
:func:`crash_point` hooks threaded through the admin commit path and the
file store (re-exported from the leaf :mod:`repro.faulthook`, which the
hooked layers import without importing this package), and the shared :class:`RetryPolicy` that client sync, admin
commits, and multi-admin conflict resolution all retry through.

Everything is deterministic: the same plan seed against the same
workload produces the identical fault sequence, and the chaos harness
(:mod:`repro.workloads.chaos`) asserts that a faulty, retried, recovered
run converges to the byte-identical cloud state of a fault-free run.
"""

from repro.faulthook import active, crash_point, install, use_faults
from repro.faults.plan import (
    READ_OPS,
    FaultInjector,
    FaultPlan,
    InjectedFault,
)
from repro.faults.retry import RetryPolicy
from repro.faults.store import FaultyCloudStore

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultyCloudStore",
    "InjectedFault",
    "READ_OPS",
    "RetryPolicy",
    "active",
    "crash_point",
    "install",
    "use_faults",
]
