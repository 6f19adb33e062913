"""Declarative operation plans: one enclave batch + one cloud batch.

Every :class:`~repro.core.admin.GroupAdministrator` mutation follows the
same macro-shape — run some ecalls, then push descriptor + partition
records + sealed group key to the cloud.  An :class:`OpPlan` makes the
shape explicit:

* ``ecalls`` — the enclave work, expressed as :class:`EcallOp` entries.
  Arguments may be :class:`~repro.sgx.enclave.ResultRef` placeholders
  referencing earlier results, so dependent calls (extend the ciphertext
  a previous entry created) batch into the same crossing.
* ``effects`` — a callable mapping the ecall results to
  :class:`PlanEffects`: the ordered cloud actions (install partition,
  drop partition, push sealed key) plus the new sealed group key, if the
  operation rotated it.

``GroupAdministrator._commit_plan`` is the single executor: the ecalls
run through ``call_batch`` (ONE crossing) and the cloud actions through
``CloudStore.commit`` (ONE round trip, descriptor conditional-put
first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class EcallOp:
    """One enclave entry in a plan (positional args only; args may contain
    :class:`~repro.sgx.enclave.ResultRef` placeholders)."""

    name: str
    args: Tuple[Any, ...]


@dataclass(frozen=True)
class InstallPartition:
    """Sign and push the record for partition ``pid`` holding ``blob``."""

    pid: int
    blob: Any  # PartitionBlob (kept untyped to avoid an import cycle)


@dataclass(frozen=True)
class DropPartition:
    """Delete partition ``pid``'s cloud object (tolerating absence)."""

    pid: int


@dataclass(frozen=True)
class PushSealedKey:
    """Push the state's (possibly freshly rotated) sealed group key."""


PlanAction = Union[InstallPartition, DropPartition, PushSealedKey]


@dataclass
class PlanEffects:
    """Cloud-visible outcome of a plan's enclave phase, in commit order."""

    actions: List[PlanAction] = field(default_factory=list)
    #: New sealed group key (``None`` when the operation kept the old one).
    sealed_gk: Optional[bytes] = None


@dataclass
class OpPlan:
    """One group mutation: enclave batch + cloud effects.

    ``effects`` receives the ecall results in request order.  Plans are
    produced by zero-argument builder closures so the executor can rebuild
    them after recovering a foreign sealed group key (multi-admin
    :class:`~repro.errors.SealingError` path) — the builder re-reads the
    refreshed ``state.sealed_group_key``.

    ``bump_epoch`` is False for operations that preset the epoch on a
    fresh state object (group creation, re-partitioning).
    """

    ecalls: List[EcallOp]
    effects: Callable[[Sequence[Any]], PlanEffects]
    bump_epoch: bool = True
    #: Telemetry label; defaults to the ecall names (see :meth:`describe`).
    label: Optional[str] = None

    def describe(self) -> str:
        """Short human/trace label for this plan (``admin.plan`` spans)."""
        if self.label:
            return self.label
        if not self.ecalls:
            return "noop"
        return "+".join(op.name for op in self.ecalls)
