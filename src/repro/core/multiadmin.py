"""Concurrent administrators (paper §VIII, second future-work avenue).

The paper suggests adapting the construction "to a distributed set of
administrators that would perform membership changes concurrently on the
same group or partition, by using lock-free techniques".  This extension
realizes that with optimistic concurrency control:

* the group *descriptor* object is the serialization point — every
  administrator pushes it with a conditional PUT carrying the version it
  last observed;
* a lost race raises :class:`~repro.errors.ConflictError`, upon which the
  losing administrator refreshes its state from the cloud — incrementally
  via :meth:`GroupAdministrator.sync_group` (one poll from its cursor plus
  refetches of only the objects the winner changed), falling back to
  :meth:`GroupAdministrator.load_group_from_cloud` for a group it has
  never loaded — and re-applies the operation — the classic lock-free
  retry loop;
* administrators share the IBBE master secret by *mutually attested
  migration* between their enclaves (``System.join``; see
  :func:`repro.sgx.attestation.provision_master_secret`) and sign
  metadata with a shared organisational role key so clients keep a
  single verification anchor.

The retry loop re-validates the operation against the refreshed state, so
semantically-conflicting operations (e.g. both admins removing the same
user) surface as :class:`MembershipError` rather than clobbering state.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.core.admin import GroupAdministrator
from repro.errors import AccessControlError, ConflictError
from repro.faults.retry import RetryPolicy

T = TypeVar("T")


class ConcurrentAdministrator:
    """Retry-on-conflict façade over a :class:`GroupAdministrator`.

    Conflict resolution runs through a shared
    :class:`~repro.faults.RetryPolicy` (capped exponential backoff with
    deterministic jitter, accounted-not-slept) instead of an immediate
    hot loop: under contention the colliding administrators back off for
    different simulated durations instead of re-racing in lock-step.
    ``admin.conflict.retries`` and ``admin.conflict.exhausted`` in the
    administrator's registry count resolved and abandoned races.
    """

    def __init__(self, admin: GroupAdministrator,
                 max_retries: int = 8) -> None:
        if max_retries < 1:
            raise AccessControlError("max_retries must be >= 1")
        self.admin = admin
        self.max_retries = max_retries
        self.conflicts_resolved = 0
        registry = admin.metrics.registry
        # max_retries counts *retries* (the historical contract: the
        # budget is on re-attempts after the first try).
        self.retry = RetryPolicy(
            max_attempts=max_retries + 1, base_ms=25.0,
            seed="admin-conflict", registry=registry)
        self._conflict_retries = registry.counter("admin.conflict.retries")
        self._conflict_exhausted = registry.counter(
            "admin.conflict.exhausted")

    # -- operations -------------------------------------------------------------

    def create_group(self, group_id: str, members: Sequence[str]) -> None:
        # Creation races are genuine conflicts (two admins creating the
        # same group) and are surfaced, not retried.
        self.admin.create_group(group_id, members)

    def add_user(self, group_id: str, user: str) -> None:
        self._with_retry(group_id,
                         lambda: self.admin.add_user(group_id, user))

    def remove_user(self, group_id: str, user: str) -> None:
        self._with_retry(group_id,
                         lambda: self.admin.remove_user(group_id, user))

    def rekey(self, group_id: str) -> None:
        self._with_retry(group_id, lambda: self.admin.rekey(group_id))

    def refresh(self, group_id: str) -> None:
        """Explicitly resynchronize from the cloud — incrementally when
        the group is already loaded (O(changes)), with a full object load
        otherwise."""
        self._resync(group_id)

    # -- the lock-free loop --------------------------------------------------------

    def _resync(self, group_id: str) -> None:
        if group_id in self.admin.cache:
            self.admin.sync_group(group_id)
        else:
            self.admin.load_group_from_cloud(group_id)

    def _with_retry(self, group_id: str, operation: Callable[[], T]) -> T:
        def on_conflict(exc: BaseException, attempt: int) -> None:
            # Lost the race: adopt the winner's state and re-apply.
            # sync_group polls from the state's cursor, so adopting the
            # winner's changes costs O(their changes), not O(group).
            self.conflicts_resolved += 1
            self._conflict_retries.add()
            self._resync(group_id)

        try:
            return self.retry.run(operation, retry_on=(ConflictError,),
                                  label=f"admin.conflict:{group_id}",
                                  on_retry=on_conflict)
        except ConflictError as exc:
            self._conflict_exhausted.add()
            raise ConflictError(
                f"operation on {group_id!r} kept conflicting after "
                f"{self.max_retries} retries"
            ) from exc
