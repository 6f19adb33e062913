"""The administrator API (paper §V, Algorithms 1-3).

An administrator is honest-but-curious: this class is *untrusted* code.  It
orchestrates partition bookkeeping, drives the IBBE-SGX enclave for every
cryptographic step, signs the resulting metadata, and pushes it to the
cloud.  At no point does it see a plaintext group or broadcast key — the
zero-knowledge tests run these exact code paths.

Every mutation updates the cached bookkeeping, then hands
:meth:`GroupAdministrator._commit_plan` two callables: one builds the
``(name, args)`` ecall batch, the other turns the batch's results into
the partitions to install and drop and the new sealed group key.  The
enclave work runs in a single
:meth:`~repro.sgx.enclave.Enclave.call_batch` crossing and the cloud
writes land in a single atomic
:meth:`~repro.cloud.store.CloudStore.commit` round trip (descriptor
conditional-put first).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud import CloudBatch, CloudStore
from repro.core.cache import AdminCache, AdminGroupState
from repro.core.metadata import (
    GroupDescriptor,
    PartitionRecord,
    descriptor_path,
    group_dir,
    partition_path,
    sealed_key_path,
    sign_all,
)
from repro.core.partitions import PartitionTable
from repro.crypto import ecdsa
from repro.crypto.rng import Rng, SystemRng
from repro.enclave_app.ibbe_enclave import IbbeEnclave, PartitionBlob
from repro.errors import (
    AccessControlError,
    ConflictError,
    MembershipError,
    NotFoundError,
    SealingError,
)
from repro.faulthook import crash_point
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import CounterField, MetricRegistry
from repro.obs.spans import span as _span


class AdminMetrics:
    """Operation counters for the macrobenchmarks.

    Backed by a ``repro.obs`` registry under the ``admin.*`` namespace;
    the attributes are views onto it (see
    :class:`~repro.obs.CounterField`).
    """

    _FIELDS = ("groups_created", "users_added", "users_removed", "rekeys",
               "repartitions", "partitions_written", "bytes_pushed",
               "plans_committed")

    groups_created = CounterField("admin.groups_created")
    users_added = CounterField("admin.users_added")
    users_removed = CounterField("admin.users_removed")
    rekeys = CounterField("admin.rekeys")
    repartitions = CounterField("admin.repartitions")
    partitions_written = CounterField("admin.partitions_written")
    bytes_pushed = CounterField("admin.bytes_pushed")
    plans_committed = CounterField("admin.plans_committed")

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        for field in self._FIELDS:
            self.registry.counter(f"admin.{field}")
        #: Per-mutation latency distribution (one observation per
        #: committed plan); ``registry.snapshot()`` reports p50/p95/p99.
        self.op_seconds = self.registry.histogram("admin.op.seconds")

    def reset(self) -> None:
        self.registry.reset()


#: One enclave crossing's requests: ``(ecall name, positional args)``.
_Batch = List[Tuple[str, Tuple[Any, ...]]]


@dataclass
class _WriteSet:
    """What one mutation commits beside its descriptor: the partition
    blobs to install, the partitions to drop and the new sealed group
    key (``None`` when the operation kept the old one)."""

    installs: Dict[int, PartitionBlob]
    drops: Sequence[int] = ()
    sealed_gk: Optional[bytes] = None


def _rekeyed(state: AdminGroupState, pids: Sequence[int],
             blobs: Sequence[PartitionBlob]) -> Dict[int, PartitionBlob]:
    """Installs for partitions a re-key left the members of: the enclave
    returns their fresh header ``C1 ‖ C2`` alone — ``C3`` depends on the
    member set only — so the stored record's last third is spliced
    back."""
    return {
        pid: replace(blob, ciphertext=blob.ciphertext
                     + state.records[pid].ciphertext[len(blob.ciphertext):])
        for pid, blob in zip(pids, blobs)
    }


class GroupAdministrator:
    """Drives group membership through the enclave and the cloud."""

    def __init__(self, enclave: IbbeEnclave, cloud: CloudStore,
                 signing_key: ecdsa.EcdsaPrivateKey,
                 partition_capacity: int,
                 rng: Optional[Rng] = None,
                 auto_repartition: bool = True) -> None:
        if partition_capacity < 1:
            raise AccessControlError("partition capacity must be >= 1")
        self.enclave = enclave
        self.cloud = cloud
        self.partition_capacity = partition_capacity
        self.auto_repartition = auto_repartition
        self._signing_key = signing_key
        # Every record this administrator reloads is checked against its
        # own key, for as long as it lives: derive it once and table it.
        self._verification_key = (
            signing_key.public_key().enable_precomputation())
        self._rng = rng or SystemRng()
        self.metrics = AdminMetrics()
        # Transient-outage retries (UnavailableError only — requests that
        # never reached the store); version conflicts are the multi-admin
        # layer's business and pass straight through.
        self.retry = RetryPolicy(seed="admin-retry",
                                 registry=self.metrics.registry)
        # One registry per administrator: operation counters and cache
        # hit/miss accounting share the admin.* namespace.
        self.cache = AdminCache(registry=self.metrics.registry)

    @property
    def verification_key(self) -> ecdsa.EcdsaPublicKey:
        """Clients pin this key to authenticate metadata."""
        return self._verification_key

    # -- Algorithm 1: create group --------------------------------------------------

    def create_group(self, group_id: str, members: Sequence[str],
                     ) -> AdminGroupState:
        """Create a group: partition, run the enclaved region, push."""
        if group_id in self.cache:
            raise AccessControlError(f"group {group_id!r} already exists")
        if not members:
            raise AccessControlError("cannot create an empty group")
        state = self._build_group(group_id, members)
        self.cache.put(state)
        self.metrics.groups_created += 1
        return state

    def _build_group(self, group_id: str, members: Sequence[str],
                     epoch: int = 0,
                     descriptor_version: int = 0,
                     drop_pids: Sequence[int] = ()) -> AdminGroupState:
        """Shared by creation and re-partitioning: one ``create_group``
        ecall emits every partition blob; the commit installs them all
        (and, for re-partitioning, drops the stale partition objects) in
        one batch."""
        table = PartitionTable.build(members, self.partition_capacity)
        pids = table.partition_ids
        partition_members = [table.members_of(pid) for pid in pids]
        state = AdminGroupState(group_id=group_id, table=table, epoch=epoch,
                                descriptor_version=descriptor_version)

        def writes(results: Sequence[Any]) -> _WriteSet:
            blobs, sealed_gk = results[0]
            return _WriteSet(dict(zip(pids, blobs)), drop_pids, sealed_gk)

        self._commit_plan(state, lambda: [
            ("create_group", (group_id, partition_members))], writes)
        return state

    # -- Algorithm 2: add user ---------------------------------------------------------

    def add_user(self, group_id: str, user: str) -> None:
        """Add ``user``: a one-user :meth:`add_users` batch."""
        self.add_users(group_id, [user])

    def add_users(self, group_id: str, users: Sequence[str]) -> None:
        """Add ``users``: each goes to a random open partition, or to a
        fresh one when all are full (the two CDF modes of Fig. 8a).

        One crossing and one commit for the whole batch, one
        ``create_partition`` per touched partition, opened (Algorithm 2
        lines 4-6) or extended (line 11) alike: the enclave rebuilds it
        around its whole member list under the current ``gk``.
        """
        state = self._require_group(group_id)
        users = list(users)
        if not users:
            return
        seen: set = set()
        for user in users:
            if user in state.table:
                raise MembershipError(f"user {user!r} is already a member")
            if user in seen:
                raise MembershipError(f"user {user!r} is listed twice")
            seen.add(user)

        # Placement phase: route every user (mutating the table and
        # drawing placement randomness) before any enclave work.
        touched: Dict[int, None] = {}
        for user in users:
            pid = state.table.pick_open_partition(self._rng)
            if pid is None:
                pid = state.table.add_new_partition(user)
            else:
                state.table.add_to_partition(pid, user)
            touched[pid] = None

        state.epoch += 1
        # ``create_partition`` reads the sealed gk when the batch is
        # built, so a rebuild after its recovery picks up the fresh one.
        self._commit_plan(state, lambda: [
            ("create_partition",
             (group_id, state.table.members_of(pid), state.sealed_group_key))
            for pid in touched
        ], lambda results: _WriteSet(dict(zip(touched, results))))
        self.metrics.users_added += len(users)

    def delete_group(self, group_id: str) -> None:
        """Remove a group and all of its cloud metadata.

        Multi-admin safe: the teardown first *claims* the descriptor with
        a conditional tombstone put (a signed empty-membership descriptor
        at the next epoch), so a concurrent administrator's conditional
        commit loses the race cleanly (:class:`ConflictError`) instead of
        interleaving writes with a half-deleted group.  Only then are the
        partitions, the sealed key and finally the descriptor removed.
        """
        state = self._require_group(group_id)
        pids = list(state.table.partition_ids)
        dpath = descriptor_path(group_id)
        spath = sealed_key_path(group_id)
        tombstone = GroupDescriptor(
            group_id=group_id,
            partition_capacity=state.table.capacity,
            user_to_partition={},
            epoch=state.epoch + 1,
            next_partition_id=state.table.next_partition_id,
        ).signed(self._signing_key)
        batch = CloudBatch()
        batch.put(dpath, tombstone,
                  expected_version=state.descriptor_version)
        for pid in pids:
            batch.delete(partition_path(group_id, pid), ignore_missing=True)
        batch.delete(spath, ignore_missing=True)
        batch.delete(dpath)
        self.retry.run(lambda: self.cloud.commit(batch),
                       label="admin.delete_group")
        self.cache.drop(group_id)

    # -- Algorithm 3: remove user --------------------------------------------------------

    def remove_user(self, group_id: str, user: str) -> None:
        """Revoke ``user``: fresh group key, the hosting partition
        rebuilt without them, every other partition re-keyed — the
        enclave derives each from its member list, and all partition
        blobs are emitted by a single entry."""
        state = self._require_group(group_id)
        host_pid = state.table.partition_of(user)
        state.table.remove(user)
        other_pids = [pid for pid in state.table.partition_ids
                      if pid != host_pid]
        others = [state.table.members_of(pid) for pid in other_pids]
        state.epoch += 1

        if len(state.table) == 0:
            # Last member left: drop all metadata; no re-key needed since
            # nobody may read the group any longer.
            self._commit_plan(state, lambda: [],
                              lambda results: _WriteSet({}, [host_pid]))
        elif host_pid in state.table.partition_ids:
            def writes(results: Sequence[Any]) -> _WriteSet:
                host_blob, other_blobs, sealed_gk = results[0]
                installs = {host_pid: host_blob}
                installs.update(_rekeyed(state, other_pids, other_blobs))
                return _WriteSet(installs, sealed_gk=sealed_gk)

            self._commit_plan(state, lambda: [("remove_user", (
                group_id, user, state.table.members_of(host_pid), others,
            ))], writes)
        else:
            # Hosting partition became empty: drop it and re-key the rest.
            def writes(results: Sequence[Any]) -> _WriteSet:
                other_blobs, sealed_gk = results[0]
                return _WriteSet(_rekeyed(state, other_pids, other_blobs),
                                 [host_pid], sealed_gk)

            self._commit_plan(state, lambda: [
                ("rekey_group", (group_id, others))], writes)
        self.metrics.users_removed += 1

        if self.auto_repartition and state.table.needs_repartition():
            self.repartition(group_id)

    # -- parallel engine ------------------------------------------------------------------

    def warm_enclave_workers(self) -> int:
        """Pre-start the enclave's parallel worker pool (:mod:`repro.par`)
        so pool start-up never lands inside a measured group operation.
        Returns the worker count (1 = serial, nothing to start)."""
        return self.enclave.call("prepare_workers")

    # -- re-keying and re-partitioning ----------------------------------------------------

    def rekey(self, group_id: str) -> None:
        """Refresh the group key without membership changes (A-G)."""
        state = self._require_group(group_id)
        pids = state.table.partition_ids
        state.epoch += 1

        def writes(results: Sequence[Any]) -> _WriteSet:
            blobs, sealed_gk = results[0]
            return _WriteSet(_rekeyed(state, pids, blobs), sealed_gk=sealed_gk)

        self._commit_plan(state, lambda: [("rekey_group", (
            group_id, [state.table.members_of(pid) for pid in pids],
        ))], writes)
        self.metrics.rekeys += 1

    def repartition(self, group_id: str,
                    new_capacity: Optional[int] = None) -> None:
        """Re-create the group from its current member list (§V-A:
        "re-partitioning consists in simply re-creating the group").

        ``new_capacity`` switches the group to a different partition size —
        the hook used by the adaptive-partitioning extension
        (:mod:`repro.core.adaptive`).  It must not exceed the enclave's
        system bound ``m`` fixed at setup.
        """
        state = self._require_group(group_id)
        if new_capacity is not None:
            if new_capacity < 1:
                raise AccessControlError("partition capacity must be >= 1")
            bound = self.enclave.call("get_system_bound")
            if new_capacity > bound:
                raise AccessControlError(
                    f"partition capacity {new_capacity} exceeds the "
                    f"enclave's system bound m={bound} fixed at setup"
                )
            self.partition_capacity = new_capacity
        members = state.table.all_members()
        old_pids = set(state.table.partition_ids)
        # The new layout's descriptor put claims the next version (the
        # commit point); stale partition objects from the old layout are
        # dropped in the same batch.
        new_table_pids = set(
            PartitionTable.build(members, self.partition_capacity).partition_ids
        )
        new_state = self._build_group(
            group_id, members, epoch=state.epoch + 1,
            descriptor_version=state.descriptor_version,
            drop_pids=sorted(old_pids - new_table_pids),
        )
        self.cache.put(new_state)
        self.metrics.repartitions += 1

    # -- queries -------------------------------------------------------------------------

    def group_state(self, group_id: str) -> AdminGroupState:
        return self._require_group(group_id)

    def members(self, group_id: str) -> List[str]:
        return self._require_group(group_id).table.all_members()

    # -- the shared plan executor ---------------------------------------------------------

    def _commit_plan(self, state: AdminGroupState,
                     ecalls: Callable[[], _Batch],
                     writes: Callable[[List[Any]], _WriteSet]) -> None:
        """Run one mutation end to end: enclave phase, then cloud commit.

        ``ecalls`` builds the ``(name, args)`` batch and must be a pure
        function of the (already mutated) bookkeeping state: on a
        :class:`SealingError` — the cached sealed group key was produced
        by another admin's enclave — the group key is recovered and
        re-sealed and the batch is rebuilt against the fresh
        ``state.sealed_group_key``, then re-run.  ``writes`` turns the
        batch's results, in request order, into the cloud write set.

        Only committed state stays cached: a plan that fails for any
        reason but a lost race drops its group, which the next operation
        reloads; a :class:`ConflictError` keeps it, stale-versioned, for
        :meth:`sync_group` to adopt the winner's descriptor.
        """
        try:
            batch = ecalls()
            start = time.perf_counter()
            with _span("admin.plan", group=state.group_id,
                       op="+".join(name for name, _ in batch) or "noop"):
                crash_point("admin.plan.pre_ecalls")
                try:
                    results = self._run_ecalls(batch)
                except SealingError:
                    state.sealed_group_key = self._recover_sealed_gk(state)
                    results = self._run_ecalls(ecalls())
                write_set = writes(results)
                if write_set.sealed_gk is not None:
                    state.sealed_group_key = write_set.sealed_gk
                crash_point("admin.plan.pre_commit")
                self._commit_effects(state, write_set)
                crash_point("admin.plan.post_commit")
                self.metrics.plans_committed += 1
        except ConflictError:
            raise
        except BaseException:
            self.cache.drop(state.group_id)
            raise
        self.metrics.op_seconds.observe(time.perf_counter() - start)

    def _run_ecalls(self, batch: _Batch) -> List[Any]:
        return self.enclave.call_batch(batch) if batch else []

    def _commit_effects(self, state: AdminGroupState,
                        writes: _WriteSet) -> None:
        """Write one mutation in one atomic batch: the descriptor, the
        drops, the signed partition records, then the sealed key.  The
        descriptor and every record are signed by one ``sign_many``
        call.

        The descriptor put goes first and is conditional on the version
        this administrator last observed: it is the commit point — a
        lost multi-admin race raises :class:`ConflictError` before any
        object is touched.
        """
        installed = {
            pid: PartitionRecord(
                group_id=state.group_id, partition_id=pid,
                members=tuple(state.table.members_of(pid)),
                ciphertext=blob.ciphertext, envelope=blob.envelope)
            for pid, blob in writes.installs.items()
        }
        descriptor_data, *records_data = sign_all(
            self._signing_key, [self._descriptor(state), *installed.values()])
        dpath = descriptor_path(state.group_id)
        batch = CloudBatch()
        batch.put(dpath, descriptor_data,
                  expected_version=state.descriptor_version)
        pushed = len(descriptor_data)
        for pid in writes.drops:
            batch.delete(partition_path(state.group_id, pid),
                         ignore_missing=True)
        for pid, data in zip(installed, records_data):
            batch.put(partition_path(state.group_id, pid), data)
            pushed += len(data)
        if writes.sealed_gk is not None:
            batch.put(sealed_key_path(state.group_id), writes.sealed_gk)
            pushed += len(writes.sealed_gk)
        versions = self.retry.run(lambda: self.cloud.commit(batch),
                                  label="admin.commit")
        state.descriptor_version = versions[dpath]

        state.records.update(installed)
        for pid in writes.drops:
            state.records.pop(pid, None)
        self.metrics.bytes_pushed += pushed
        self.metrics.partitions_written += len(installed)
        # Our own writes are already reflected in the cached state; move
        # the sync cursor past them so the next sync_group polls only
        # changes made by *other* administrators.  (Reading the head here
        # is race-free in this in-process simulation — commits are
        # synchronous; a distributed store would need the commit call to
        # return its own event sequences instead.)
        state.sync_cursor = max(state.sync_cursor, self.cloud.head_sequence())

    @staticmethod
    def _descriptor(state: AdminGroupState) -> GroupDescriptor:
        return GroupDescriptor(
            group_id=state.group_id,
            partition_capacity=state.table.capacity,
            user_to_partition={
                user: state.table.partition_of(user)
                for user in state.table.all_members()
            },
            epoch=state.epoch,
            next_partition_id=state.table.next_partition_id,
        )

    # -- persistence / recovery ------------------------------------------------

    def load_group_from_cloud(self, group_id: str) -> AdminGroupState:
        """Rebuild a group's administrative state from cloud metadata.

        Allows a (new) administrator process to take over management of an
        existing group: the descriptor provides the partition map, the
        partition records the ciphertexts, and the sealed group key is the
        opaque blob only the enclave can open.  All records are
        signature-checked against this administrator's verification key.
        The partition records and the sealed key arrive in one
        ``get_many`` round trip.

        The load reads *objects*, never the event log, so its cost is
        O(state) regardless of how much history the store has compacted
        away; :meth:`sync_group` then keeps the loaded state current for
        O(changes) per refresh.
        """
        with _span("admin.load_group", group=group_id):
            # Read the head first: anything committed after this point
            # will be re-observed by the next sync_group poll, which is
            # idempotent; anything at or below it is covered by the
            # object reads that follow.
            sync_cursor = self.cloud.head_sequence()
            descriptor_obj = self.retry.run(
                lambda: self.cloud.get(descriptor_path(group_id)),
                label="admin.load.descriptor",
            )
            descriptor = GroupDescriptor.verify_and_decode(
                descriptor_obj.data, self.verification_key
            )
            state = self._assemble_state(
                group_id, descriptor, descriptor_obj.version,
                cached_records={}, sync_cursor=sync_cursor,
            )
            self.cache.put(state)
            return state

    def ensure_loaded(self, group_id: str) -> AdminGroupState:
        """The group's state, loaded from the cloud on a cold cache.
        Every operation goes through this loader, so a fresh process
        (every CLI invocation) picks up an existing group on first use,
        and a group dropped by a failed plan is reloaded alone."""
        state = self.cache.get(group_id)
        if state is None:
            state = self.load_group_from_cloud(group_id)
        return state

    def sync_group(self, group_id: str) -> bool:
        """Incrementally refresh an already-loaded group: one poll from
        the state's cursor, then refetch only what changed (unchanged
        partition records are reused from the cache, so the cost is
        O(changes since the last load/sync), not O(group)).

        The sealed group key is always refetched when anything changed:
        the cached copy may be a *locally staged* value from an operation
        that lost an optimistic-concurrency race and never committed.

        Returns True when the state changed.  Raises
        :class:`~repro.errors.NotFoundError` (after dropping the cached
        state) when the group's descriptor was deleted — the same outcome
        a full reload of a deleted group produces.
        """
        state = self._require_group(group_id)
        with _span("admin.sync_group", group=group_id) as sp:
            events, cursor = self.retry.run(
                lambda: self.cloud.poll_dir(group_dir(group_id),
                                            state.sync_cursor),
                label="admin.sync.poll",
            )
            sp.set(events=len(events))
            if not events:
                state.sync_cursor = cursor
                return False
            # Last event per path decides the outcome; intermediate
            # states within the window are dead.
            final = {event.path: event for event in events}
            dpath = descriptor_path(group_id)
            descriptor_event = final.get(dpath)
            if (descriptor_event is not None
                    and descriptor_event.kind == "delete"):
                self.cache.drop(group_id)
                raise NotFoundError(f"no object at {dpath}")
            descriptor_obj = self.retry.run(
                lambda: self.cloud.get(dpath),
                label="admin.load.descriptor",
            )
            descriptor = GroupDescriptor.verify_and_decode(
                descriptor_obj.data, self.verification_key
            )
            cached = {
                pid: record for pid, record in state.records.items()
                if partition_path(group_id, pid) not in final
            }
            sp.set(reused=len(cached))
            fresh = self._assemble_state(
                group_id, descriptor, descriptor_obj.version,
                cached_records=cached, sync_cursor=cursor,
            )
            self.cache.put(fresh)
            return True

    def _assemble_state(self, group_id: str, descriptor: GroupDescriptor,
                        descriptor_version: int,
                        cached_records: Dict[int, PartitionRecord],
                        sync_cursor: int) -> AdminGroupState:
        """Materialize an :class:`AdminGroupState` from a verified
        descriptor, fetching every partition record not supplied in
        ``cached_records`` (plus, always, the sealed group key).  The
        partition table is rebuilt from the authoritative record member
        order, so assembly from any mix of cached and fetched records is
        byte-identical to a full replay of the event history."""
        table = PartitionTable(capacity=descriptor.partition_capacity)
        by_partition: Dict[int, List[str]] = {}
        for user, pid in descriptor.user_to_partition.items():
            by_partition.setdefault(pid, []).append(user)
        state = AdminGroupState(group_id=group_id, table=table,
                                epoch=descriptor.epoch,
                                descriptor_version=descriptor_version,
                                sync_cursor=sync_cursor)
        pids = sorted(by_partition)
        record_paths = {
            pid: partition_path(group_id, pid)
            for pid in pids if pid not in cached_records
        }
        skey_path = sealed_key_path(group_id)
        objects = self.retry.run(
            lambda: self.cloud.get_many(
                list(record_paths.values()) + [skey_path]
            ),
            label="admin.load.get_many",
        )
        for pid in pids:
            if pid in cached_records:
                record = cached_records[pid]
            else:
                record_obj = objects.get(record_paths[pid])
                if record_obj is None:
                    raise NotFoundError(
                        f"no object at {record_paths[pid]}")
                record = PartitionRecord.verify_and_decode(
                    record_obj.data, self.verification_key
                )
            # Rebuild bookkeeping from the authoritative record order.
            created = table._create_partition(list(record.members))
            if created != pid:
                # Partition ids on the cloud are sparse after deletions;
                # remap the freshly created id to the stored one.
                table._partitions[pid] = table._partitions.pop(created)
                for user in record.members:
                    table._user_to_partition[user] = pid
                table._next_id = max(table._next_id, pid + 1)
            state.records[pid] = record
        # Restore the allocation cursor from the descriptor: surviving
        # partitions alone under-estimate it when the top partition was
        # deleted, and ids must never be reused.
        table._next_id = max(table._next_id, descriptor.next_partition_id)
        sealed_obj = objects.get(skey_path)
        if sealed_obj is not None:
            state.sealed_group_key = sealed_obj.data
        return state

    def _recover_sealed_gk(self, state: AdminGroupState) -> bytes:
        """Multi-admin recovery: the cached sealed group key may have been
        sealed by *another* admin's enclave (sealed blobs are platform-
        bound).  Holding the MSK, our enclave recovers ``gk`` from a
        current partition record and re-seals it for itself."""
        reference = next(
            (record for record in state.records.values() if record.members),
            None,
        )
        if reference is None:
            raise SealingError(
                "cannot recover the group key: no populated partition "
                "records are available"
            )
        return self.enclave.call(
            "recover_and_reseal", state.group_id,
            list(reference.members), reference.ciphertext,
            reference.envelope,
        )

    def _require_group(self, group_id: str) -> AdminGroupState:
        try:
            return self.ensure_loaded(group_id)
        except NotFoundError as exc:
            raise AccessControlError(f"unknown group {group_id!r}") from exc
