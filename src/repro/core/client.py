"""The client (regular user) API (paper §V).

Clients never touch an enclave.  They long-poll the group directory for
changes, authenticate what they fetch against the pinned administrator
key, run the plain IBBE decrypt (quadratic in the partition size — the
cost Fig. 8b measures) and unwrap the group key envelope.

**One sync path, routed through the signed descriptor.**  A poll round
only tells a member *that* something changed and under which paths; it
never decides anything.  If anything did, :meth:`GroupClient.sync`
fetches the group descriptor — together with the member's current
partition record when that path is among the changed ones — verifies
it, and reads its own partition id from the signed user→partition map.
Only when the map moves it (first sync, re-partitioning) does it fetch
one more object: the record of its new partition.  So a member fetches
and verifies the descriptor and *its own* record, whatever the size of
the group or of the history it missed — O(|p|) bytes, the paper's
client-side bound (§IV-C) — and a record of a partition it is not in
cannot reach it: such a record is never requested, and a record served
at the requested path must be signed, carry the (group, partition) the
signed descriptor named, and list the member, or it is rejected.

Two hardening extensions beyond the paper:

* **Decrypt-hint caching** — the quadratic part of IBBE decryption depends
  only on the partition member set, so it is cached and re-keys cost one
  two-term product pairing instead of an O(|p|²) expansion (quantified
  by ``bench_ablation_client_cache``).  The Miller line tables of that
  product ride on the cached hint's element (public) and on the user
  key's (as secret as the key; it stays on this client's key object), so
  a re-key performs no point arithmetic either.  A member set one added
  and / or one removed identity away from the hint last used gets its
  hint by :func:`repro.ibbe.update_decryption` from that hint and the
  records' ``C3`` — a few ladders whatever the partition size — and is
  kept only if the record then decrypts; otherwise the expansion runs.
* **Freshness tracking** — the client remembers the highest group epoch it
  has observed (from the signed descriptor); a cloud serving older
  metadata raises :class:`~repro.errors.StaleMetadataError` instead of
  silently rolling the client back to a pre-revocation key.

Two scaling extensions ride on the store's snapshot compaction:

* **Snapshot bootstrap** — when the poll cursor predates the store's
  snapshot horizon (a reconnect after the history the client missed was
  compacted away), the same routine runs without consulting the events
  at all (``client.snapshot_bootstraps`` counts these) and polling
  resumes from the horizon.
* **Persistent resume cursor** — pass ``resume_path`` and the client
  saves ``(cursor, epoch, partition record)`` after every sync and
  reloads it on construction, so a restarted client process polls only
  the changes since its last sync.  The saved record is re-verified
  against the pinned administrator key on load; a corrupt or foreign
  file is ignored (cold start).
"""

from __future__ import annotations

import base64
import json
import os
import time
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union

from repro import ibbe
from repro.cloud.store import CloudObject, CloudStore
from repro.core.cache import ClientGroupState
from repro.core.metadata import (
    GroupDescriptor,
    PartitionRecord,
    descriptor_path,
    group_dir,
    partition_path,
)
from repro.crypto import ecdsa
from repro.crypto.envelope import unwrap_group_key
from repro.errors import (
    AccessControlError,
    NotFoundError,
    ReproError,
    RevokedError,
    StaleMetadataError,
)
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import CounterField, MetricRegistry
from repro.obs.spans import span as _span
from repro.pairing.group import PairingGroup


class GroupClient:
    """One user's view of one group."""

    #: Registry-backed counters (``client.*`` namespace); the attribute
    #: names are the historical API, kept working via the descriptors.
    decrypt_count = CounterField("client.decrypts")
    expansion_count = CounterField("client.expansions")
    hint_updates = CounterField("client.hint_updates")
    hint_fallbacks = CounterField("client.hint_fallbacks")

    #: Default hint-cache capacity: one partition's member set per epoch
    #: is live; a tiny window covers moves between partitions without
    #: unbounded growth.
    HINT_CACHE_CAP = 4

    def __init__(self, group_id: str, identity: str,
                 user_key: ibbe.IbbeUserKey,
                 public_key: ibbe.IbbePublicKey,
                 cloud: CloudStore,
                 admin_verification_key: ecdsa.EcdsaPublicKey,
                 resume_path: Optional[Union[str, Path]] = None) -> None:
        if user_key.identity != identity:
            raise AccessControlError("user key does not match the identity")
        self.group_id = group_id
        self.identity = identity
        self._user_key = user_key
        self._pk = public_key
        self._cloud = cloud
        # Pinned for this client's lifetime and checked on every sync.
        self._admin_key = admin_verification_key.enable_precomputation()
        self.state = ClientGroupState(group_id=group_id)
        self.registry = MetricRegistry()
        # Long-poll rounds retry through the shared policy: both the poll
        # and the snapshot fetch are reads, so UnavailableError *and*
        # injected read timeouts are safe to reissue.
        self.retry = RetryPolicy(seed=f"client-retry:{identity}",
                                 registry=self.registry)
        self.decrypt_count = 0
        #: Multi-exponentiations actually run (from-scratch hints and
        #: witnesses) — the hint cache keeps this far below
        #: :attr:`decrypt_count` under re-key churn, the hint update
        #: under membership churn.
        self.expansion_count = 0
        #: Hints obtained by update, and updates discarded because the
        #: record did not decrypt under them (0 against honest records).
        self.hint_updates = 0
        self.hint_fallbacks = 0
        self._hints: Dict[Tuple[str, ...], ibbe.DecryptionHint] = {}
        #: The hint last decrypted with and that record's ciphertext
        #: (whose ``C3`` the next update reads).
        self._last: Optional[Tuple[ibbe.DecryptionHint, bytes]] = None
        self.registry.gauge("client.hint_cache_size",
                            lambda: len(self._hints))
        #: Per-decrypt latency distribution (Fig. 8b's measured path);
        #: ``snapshot()`` reports p50/p95/p99.
        self._decrypt_seconds = self.registry.histogram(
            "client.decrypt.seconds"
        )
        self._highest_epoch = -1
        self._bootstraps = self.registry.counter(
            "client.snapshot_bootstraps")
        self._resume_loads = self.registry.counter("client.resume_loads")
        self.resume_path = Path(resume_path) if resume_path else None
        if self.resume_path is not None:
            self._load_resume()

    @property
    def group(self) -> PairingGroup:
        return self._pk.group

    # -- synchronisation ---------------------------------------------------------

    def sync(self) -> bool:
        """One long-poll round.  Returns True when our partition changed.

        The poll only says *whether* (and which paths) anything changed;
        what changed for us is read from the signed descriptor, fetched
        in one ``get_many`` together with our current partition record
        when that is among the changed paths.
        """
        with _span("client.sync", group=self.group_id,
                   identity=self.identity):
            changed = self._sync()
            if self.resume_path is not None:
                self._save_resume()
            return changed

    def _sync(self) -> bool:
        horizon = self._cloud.snapshot_horizon()
        # A cursor inside the compacted prefix: the history it points
        # into no longer exists, so poll the suffix only and rebuild our
        # view whatever the suffix holds.
        compacted = self.state.poll_cursor < horizon
        if compacted:
            self._bootstraps.add()
        events, cursor = self.retry.run(
            lambda: self._cloud.poll_dir(
                group_dir(self.group_id),
                max(self.state.poll_cursor, horizon),
            ),
            label="client.poll",
        )
        self.state.poll_cursor = cursor
        if not (events or compacted):
            return False
        return self._materialise(
            None if compacted else {event.path for event in events})

    def _materialise(self, changed: Optional[Set[str]]) -> bool:
        """Rebuild our view from the signed descriptor plus *our own*
        partition record — the only two objects a member ever fetches or
        verifies.  ``changed`` holds the paths the poll reported
        (``None``: unknown, assume all).  Returns True when our
        membership or record changed."""
        state = self.state
        dpath = descriptor_path(self.group_id)
        paths = [dpath]
        if state.partition_id is not None:
            own = partition_path(self.group_id, state.partition_id)
            if changed is None or own in changed:
                paths.append(own)
        objects = self.retry.run(
            lambda: self._cloud.get_many(paths), label="client.fetch")
        if dpath not in objects:
            # The group does not exist (deleted, or never created).
            return self._clear_membership()
        descriptor = self._ingest_descriptor(objects[dpath].data)
        pid = descriptor.user_to_partition.get(self.identity)
        if pid is None:
            return self._clear_membership()
        path = partition_path(self.group_id, pid)
        if pid != state.partition_id:
            # New here, or moved by a re-partitioning: one more fetch.
            try:
                obj: Optional[CloudObject] = self.retry.run(
                    lambda: self._cloud.get(path), label="client.fetch")
            except NotFoundError:
                obj = None
        elif path in paths:
            obj = objects.get(path)
        else:
            return False    # somebody else's partition changed
        if obj is None:
            # Raced with a concurrent commit; the next poll catches up.
            return False
        record = PartitionRecord.verify_and_decode(obj.data, self._admin_key)
        if record.group_id != self.group_id or record.partition_id != pid:
            theirs = partition_path(record.group_id, record.partition_id)
            raise AccessControlError(f"record of {theirs} served at {path}")
        if self.identity not in record.members:
            # The descriptor is ahead of the record; the next poll
            # brings the record that lists us (or the revocation).
            return self._clear_membership()
        unchanged = state.record_signed == obj.data
        state.record_signed = obj.data
        state.record_version = obj.version
        if unchanged:
            return False    # the derived group key stays valid
        state.record = record
        state.partition_id = pid
        state.group_key = None  # force re-derivation
        return True

    def _clear_membership(self) -> bool:
        """Forget our partition; True when there was one to forget."""
        had_record = self.state.record is not None
        self.state.record = None
        self.state.record_signed = None
        self.state.partition_id = None
        self.state.group_key = None
        return had_record

    def _ingest_descriptor(self, data: bytes) -> GroupDescriptor:
        """Track the signed group epoch for rollback detection."""
        descriptor = GroupDescriptor.verify_and_decode(data, self._admin_key)
        if descriptor.group_id != self.group_id:
            raise AccessControlError("descriptor for a different group")
        if descriptor.epoch < self._highest_epoch:
            raise StaleMetadataError(
                f"cloud served group epoch {descriptor.epoch} after epoch "
                f"{self._highest_epoch} was observed — possible rollback"
            )
        self._highest_epoch = max(self._highest_epoch, descriptor.epoch)
        return descriptor

    # -- key derivation ------------------------------------------------------------

    def current_group_key(self) -> bytes:
        """Return ``gk``, deriving it from the cached partition record.

        Raises :class:`RevokedError` when the user is in no partition —
        which is exactly the state after a revocation has propagated.
        """
        if self.state.group_key is not None:
            return self.state.group_key
        record = self.state.record
        if record is None:
            raise RevokedError(
                f"user {self.identity!r} has no partition in group "
                f"{self.group_id!r} (revoked or never added)"
            )
        self.state.group_key = self.decrypt_partition(record)
        return self.state.group_key

    def decrypt_partition(self, record: PartitionRecord) -> bytes:
        """The client-side cryptographic path, benchmarked by Fig. 8b:
        IBBE decrypt (quadratic in |p|, amortized by the hint cache) then
        AES envelope unwrap."""
        start = time.perf_counter()
        with _span("client.decrypt", group=self.group_id,
                   partition_size=len(record.members)):
            header = ibbe.IbbeCiphertext.decode_header(self.group,
                                                       record.ciphertext)
            key = tuple(record.members)
            group_key = None
            if key not in self._hints:
                group_key = self._decrypt_by_update(key, header, record)
            if group_key is None:
                group_key = self._unwrap(self._hint_for(key), header, record)
        self._decrypt_seconds.observe(time.perf_counter() - start)
        return group_key

    def _unwrap(self, hint: ibbe.DecryptionHint, header: ibbe.IbbeHeader,
                record: PartitionRecord) -> bytes:
        bk = ibbe.decrypt_with_hint(self._pk, self._user_key, hint, header)
        self.decrypt_count += 1
        group_key = unwrap_group_key(bk.digest(), record.envelope,
                                     aad=self.group_id.encode("utf-8"))
        self._last = (hint, record.ciphertext)
        return group_key

    def _decrypt_by_update(self, key: Tuple[str, ...],
                           header: ibbe.IbbeHeader,
                           record: PartitionRecord) -> Optional[bytes]:
        """``gk`` under a hint for ``key`` updated from the one last
        used, or ``None``: ``key`` is not one change away, or ``record``
        does not decrypt under the result.  The update is only as good
        as the two ``C3`` it read, so any failure discards it and the
        from-scratch path — whose verdict on the record is the final
        one — runs instead."""
        if self._last is None:
            return None
        last, ciphertext = self._last
        try:
            hint = ibbe.update_decryption(
                self._pk, last, key,
                ibbe.IbbeCiphertext.split(self.group, ciphertext)[2],
                ibbe.IbbeCiphertext.split(self.group, record.ciphertext)[2])
            if hint is None:
                return None
            self.expansion_count += (last.witness is None
                                     and hint.witness is not None)
            group_key = self._unwrap(hint, header, record)
        except ReproError:
            self.hint_fallbacks += 1
            return None
        self.hint_updates += 1
        self._cache_hint(key, hint)
        return group_key

    def _hint_for(self, members: Tuple[str, ...]) -> ibbe.DecryptionHint:
        key = tuple(members)
        hint = self._hints.get(key)
        if hint is None:
            hint = ibbe.prepare_decryption(
                self._pk, self._user_key, list(members)
            )
            self.expansion_count += 1
            self._cache_hint(key, hint)
        return hint

    def _cache_hint(self, key: Tuple[str, ...],
                    hint: ibbe.DecryptionHint) -> None:
        if len(self._hints) >= self.HINT_CACHE_CAP:
            self._hints.pop(next(iter(self._hints)))
        self._hints[key] = hint

    # -- resume persistence --------------------------------------------------------

    def _save_resume(self) -> None:
        """Persist the sync position atomically (temp + ``os.replace``),
        so a restarted client process resumes in O(changes since last
        sync) instead of replaying from sequence zero."""
        state = self.state
        payload = {
            "group_id": self.group_id,
            "identity": self.identity,
            "poll_cursor": state.poll_cursor,
            "highest_epoch": self._highest_epoch,
            "partition_id": state.partition_id,
            "record_version": state.record_version,
            "record": (
                base64.b64encode(state.record_signed).decode("ascii")
                if state.record_signed is not None else None
            ),
        }
        tmp = self.resume_path.with_name(self.resume_path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self.resume_path)

    def _load_resume(self) -> None:
        """Restore a saved sync position.  The record is re-verified
        against the pinned administrator key, so the resume file is a
        cache, never a trust root; anything malformed, mis-signed or
        belonging to another (group, identity) is discarded and the
        client cold-starts."""
        try:
            payload = json.loads(self.resume_path.read_text("utf-8"))
            if (payload["group_id"] != self.group_id
                    or payload["identity"] != self.identity):
                return
            cursor = int(payload["poll_cursor"])
            epoch = int(payload["highest_epoch"])
            record = None
            version = 0
            if payload.get("record") is not None:
                blob = base64.b64decode(payload["record"].encode("ascii"))
                record = PartitionRecord.verify_and_decode(
                    blob, self._admin_key)
                if (record.group_id != self.group_id
                        or record.partition_id != payload["partition_id"]
                        or self.identity not in record.members):
                    return
                version = int(payload["record_version"])
        except Exception:
            return
        self.state.poll_cursor = cursor
        self._highest_epoch = max(self._highest_epoch, epoch)
        if record is not None:
            self.state.record = record
            self.state.record_signed = blob
            self.state.partition_id = record.partition_id
            self.state.record_version = version
        self._resume_loads.add()
