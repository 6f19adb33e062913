"""Hash-chained membership operation log (paper §VIII, third avenue).

The paper suggests certifying blocks of membership-operation logs with
blockchain-like technologies for multi-administrator setups.  This
simplified realization provides the auditability core:

* every membership operation appends a signed entry chained by the hash of
  its predecessor (tamper-evidence);
* entries carry the acting administrator's identity, so a quorum of admins
  can audit each other;
* periodic *checkpoints* sign the chain head, certifying the whole prefix
  (the "block certification" of the paper's suggestion);
* :func:`verify_chain` detects any splice, reorder, retro-edit or foreign
  signature;
* a certified prefix can be *compacted* away
  (:meth:`OperationLog.compact`): the checkpoint becomes the chain's new
  *base* — audits then verify the suffix against the signed base hash
  instead of replaying from genesis, the oplog counterpart of the store's
  snapshot compaction.  The certifying checkpoint is retained so a
  decoded compacted log is still anchored in an administrator signature,
  never in bare bytes.

The log is public metadata — it reveals operations and identities, which
the model already concedes to the cloud (§II).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crypto import ecdsa
from repro.crypto.kdf import sha256
from repro.errors import AccessControlError, AuthenticationError, StorageError
from repro.serialize import Reader, Writer

GENESIS_HASH = bytes(32)

_OPLOG_MAGIC = b"OLOG1"


@dataclass(frozen=True)
class OpLogEntry:
    index: int
    prev_hash: bytes
    group_id: str
    kind: str          # "create" | "add" | "remove" | "rekey" | "repartition"
    user: str          # affected user ("" for group-wide operations)
    admin_id: str
    timestamp: float
    signature: bytes   # by the acting admin, over the unsigned payload

    def unsigned_payload(self) -> bytes:
        writer = Writer()
        writer.u64(self.index)
        writer.bytes_field(self.prev_hash)
        writer.str_field(self.group_id)
        writer.str_field(self.kind)
        writer.str_field(self.user)
        writer.str_field(self.admin_id)
        writer.u64(round(self.timestamp * 1_000_000))
        return writer.getvalue()

    def entry_hash(self) -> bytes:
        return sha256(self.unsigned_payload() + self.signature)

    def encode(self) -> bytes:
        writer = Writer()
        writer.bytes_field(self.unsigned_payload())
        writer.bytes_field(self.signature)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "OpLogEntry":
        outer = Reader(data)
        payload = outer.bytes_field()
        signature = outer.bytes_field()
        outer.expect_end()
        reader = Reader(payload)
        return cls(
            index=reader.u64(),
            prev_hash=reader.bytes_field(),
            group_id=reader.str_field(),
            kind=reader.str_field(),
            user=reader.str_field(),
            admin_id=reader.str_field(),
            timestamp=reader.u64() / 1_000_000,
            signature=signature,
        )


@dataclass(frozen=True)
class Checkpoint:
    """A certified chain prefix: (up to index, head hash, signer)."""

    up_to_index: int
    head_hash: bytes
    admin_id: str
    signature: bytes

    def unsigned_payload(self) -> bytes:
        writer = Writer()
        writer.u64(self.up_to_index)
        writer.bytes_field(self.head_hash)
        writer.str_field(self.admin_id)
        return writer.getvalue()

    def encode(self) -> bytes:
        writer = Writer()
        writer.bytes_field(self.unsigned_payload())
        writer.bytes_field(self.signature)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Checkpoint":
        outer = Reader(data)
        payload = outer.bytes_field()
        signature = outer.bytes_field()
        outer.expect_end()
        reader = Reader(payload)
        return cls(
            up_to_index=reader.u64(),
            head_hash=reader.bytes_field(),
            admin_id=reader.str_field(),
            signature=signature,
        )


class OperationLog:
    """Append-only, hash-chained, multi-admin operation log."""

    def __init__(self,
                 admin_keys: Dict[str, ecdsa.EcdsaPublicKey]) -> None:
        #: admin_id -> verification key; the membership of this registry is
        #: the trust anchor (it would be fixed at deployment time).
        self._admin_keys = dict(admin_keys)
        self._entries: List[OpLogEntry] = []
        self._checkpoints: List[Checkpoint] = []
        # Compaction base: the chain's verified starting point.  (-1,
        # GENESIS_HASH) means "from genesis"; after compact() it is the
        # certified checkpoint the truncated prefix folded into.
        self._base_index = -1
        self._base_hash = GENESIS_HASH

    @property
    def base_index(self) -> int:
        """Index of the last compacted-away entry (-1 = none)."""
        return self._base_index

    @property
    def base_hash(self) -> bytes:
        return self._base_hash

    @property
    def next_index(self) -> int:
        return (self._entries[-1].index + 1 if self._entries
                else self._base_index + 1)

    # -- appending ------------------------------------------------------------------

    def append(self, group_id: str, kind: str, user: str, admin_id: str,
               signing_key: ecdsa.EcdsaPrivateKey,
               timestamp: Optional[float] = None) -> OpLogEntry:
        if admin_id not in self._admin_keys:
            raise AccessControlError(f"unknown administrator {admin_id!r}")
        prev_hash = (
            self._entries[-1].entry_hash() if self._entries
            else self._base_hash
        )
        raw_ts = timestamp if timestamp is not None else time.time()
        unsigned = OpLogEntry(
            index=self.next_index, prev_hash=prev_hash,
            group_id=group_id, kind=kind, user=user, admin_id=admin_id,
            # Quantized to microseconds so encode/decode round-trips exactly.
            timestamp=round(raw_ts * 1_000_000) / 1_000_000,
            signature=b"",
        )
        signature = signing_key.sign(unsigned.unsigned_payload())
        entry = OpLogEntry(
            index=unsigned.index, prev_hash=unsigned.prev_hash,
            group_id=unsigned.group_id, kind=unsigned.kind,
            user=unsigned.user, admin_id=unsigned.admin_id,
            timestamp=unsigned.timestamp, signature=signature,
        )
        # Verify before accepting — a wrong key must not corrupt the chain.
        self._verify_entry(entry, prev_hash)
        self._entries.append(entry)
        return entry

    def checkpoint(self, admin_id: str,
                   signing_key: ecdsa.EcdsaPrivateKey) -> Checkpoint:
        """Certify the current head (the blockchain-block surrogate)."""
        if admin_id not in self._admin_keys:
            raise AccessControlError(f"unknown administrator {admin_id!r}")
        if not self._entries:
            raise AccessControlError("cannot checkpoint an empty log")
        head = self._entries[-1]
        unsigned = Checkpoint(
            up_to_index=head.index, head_hash=head.entry_hash(),
            admin_id=admin_id, signature=b"",
        )
        checkpoint = Checkpoint(
            up_to_index=unsigned.up_to_index, head_hash=unsigned.head_hash,
            admin_id=admin_id,
            signature=signing_key.sign(unsigned.unsigned_payload()),
        )
        self._checkpoints.append(checkpoint)
        return checkpoint

    # -- verification ------------------------------------------------------------------

    def verify_chain(self, entries: Optional[Sequence[OpLogEntry]] = None,
                     ) -> None:
        """Chain audit; raises :class:`AuthenticationError` on any break
        (splice, reorder, retro-edit, unknown admin, bad signature).

        The log's own entries (and any explicit sequence that starts past
        the base) verify against the compaction base; an explicit
        sequence starting at index 0 verifies from genesis, so exported
        full histories remain independently auditable."""
        entries = self._entries if entries is None else list(entries)
        if entries and entries[0].index == 0:
            prev_hash, start = GENESIS_HASH, 0
        else:
            prev_hash, start = self._base_hash, self._base_index + 1
        for position, entry in enumerate(entries):
            if entry.index != start + position:
                raise AuthenticationError(
                    f"log index gap at position {position}"
                )
            self._verify_entry(entry, prev_hash)
            prev_hash = entry.entry_hash()

    def verify_checkpoint(self, checkpoint: Checkpoint) -> None:
        key = self._admin_keys.get(checkpoint.admin_id)
        if key is None:
            raise AuthenticationError(
                f"checkpoint by unknown admin {checkpoint.admin_id!r}"
            )
        unsigned = Checkpoint(
            up_to_index=checkpoint.up_to_index,
            head_hash=checkpoint.head_hash,
            admin_id=checkpoint.admin_id, signature=b"",
        )
        key.verify(unsigned.unsigned_payload(), checkpoint.signature)
        if checkpoint.up_to_index == self._base_index:
            # Certifies exactly the compacted prefix; check against the
            # retained base hash (the entry itself is gone).
            if checkpoint.head_hash != self._base_hash:
                raise AuthenticationError(
                    "checkpoint hash does not match the compaction base"
                )
            return
        if checkpoint.up_to_index < self._base_index:
            raise AuthenticationError(
                "checkpoint inside the compacted prefix"
            )
        if checkpoint.up_to_index >= self.next_index:
            raise AuthenticationError("checkpoint beyond the log head")
        position = checkpoint.up_to_index - self._base_index - 1
        actual = self._entries[position].entry_hash()
        if actual != checkpoint.head_hash:
            raise AuthenticationError("checkpoint hash does not match log")

    # -- compaction ---------------------------------------------------------------

    def compact(self, checkpoint: Checkpoint) -> int:
        """Drop every entry the (verified) ``checkpoint`` certifies.

        The checkpoint becomes the new chain base; audits then start from
        its signed head hash.  Compacting at or below the current base is
        a no-op returning 0, so repeated compaction with the same
        checkpoint is idempotent.  Returns the number of entries dropped.
        """
        self.verify_checkpoint(checkpoint)
        if checkpoint.up_to_index <= self._base_index:
            return 0
        dropped = checkpoint.up_to_index - self._base_index
        self._entries = self._entries[dropped:]
        self._base_index = checkpoint.up_to_index
        self._base_hash = checkpoint.head_hash
        # Checkpoints inside the dropped prefix can no longer be checked
        # against anything; the certifying one is retained as the trust
        # anchor for the new base.
        self._checkpoints = [
            c for c in self._checkpoints
            if c.up_to_index >= self._base_index
        ]
        if checkpoint not in self._checkpoints:
            self._checkpoints.insert(0, checkpoint)
        return dropped

    # -- serialization ------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize base, live entries and retained checkpoints (the
        suspend/resume companion of :meth:`compact`: an audit log survives
        administrator restarts without replaying compacted history)."""
        writer = Writer()
        writer.bytes_field(_OPLOG_MAGIC)
        writer.u64(self._base_index + 1)   # +1 keeps the genesis base
        writer.bytes_field(self._base_hash)   # unsigned-representable
        writer.bytes_list([entry.encode() for entry in self._entries])
        writer.bytes_list([cp.encode() for cp in self._checkpoints])
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes,
               admin_keys: Dict[str, ecdsa.EcdsaPublicKey],
               ) -> "OperationLog":
        """Decode and fully re-verify a serialized log.

        A non-genesis base is only accepted when a retained checkpoint
        (signed by a known administrator) certifies it — the bytes of the
        base hash alone are never trusted."""
        reader = Reader(data)
        if reader.bytes_field() != _OPLOG_MAGIC:
            raise StorageError("not an operation log")
        base_index = reader.u64() - 1
        base_hash = reader.bytes_field()
        entry_blobs = reader.bytes_list()
        checkpoint_blobs = reader.bytes_list()
        reader.expect_end()
        log = cls(admin_keys)
        log._base_index = base_index
        log._base_hash = base_hash
        log._entries = [OpLogEntry.decode(blob) for blob in entry_blobs]
        log._checkpoints = [Checkpoint.decode(blob)
                            for blob in checkpoint_blobs]
        log.verify_chain()
        for checkpoint in log._checkpoints:
            log.verify_checkpoint(checkpoint)
        if base_index >= 0 and not any(
            c.up_to_index == base_index and c.head_hash == base_hash
            for c in log._checkpoints
        ):
            raise AuthenticationError(
                "compacted log without a certifying checkpoint"
            )
        return log

    def _verify_entry(self, entry: OpLogEntry, prev_hash: bytes) -> None:
        if entry.prev_hash != prev_hash:
            raise AuthenticationError(
                f"broken hash chain at index {entry.index}"
            )
        key = self._admin_keys.get(entry.admin_id)
        if key is None:
            raise AuthenticationError(
                f"entry {entry.index} signed by unknown admin "
                f"{entry.admin_id!r}"
            )
        try:
            key.verify(entry.unsigned_payload(), entry.signature)
        except AuthenticationError as exc:
            raise AuthenticationError(
                f"entry {entry.index} has an invalid signature"
            ) from exc

    # -- accessors -----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[OpLogEntry]:
        return list(self._entries)

    def checkpoints(self) -> List[Checkpoint]:
        return list(self._checkpoints)


class LoggedAdministrator:
    """A :class:`GroupAdministrator` decorated with op-log appends.

    With ``checkpoint_every=N`` the decorator certifies the chain head
    after every N logged operations; ``compact_on_checkpoint=True``
    additionally folds the certified prefix into the base, bounding the
    live log at N entries — the audit-log analogue of the store's
    ``compact_every`` policy.
    """

    def __init__(self, admin, log: OperationLog, admin_id: str,
                 signing_key: ecdsa.EcdsaPrivateKey,
                 checkpoint_every: Optional[int] = None,
                 compact_on_checkpoint: bool = False) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise AccessControlError(
                "checkpoint_every must be a positive interval")
        self.admin = admin
        self.log = log
        self.admin_id = admin_id
        self._signing_key = signing_key
        self.checkpoint_every = checkpoint_every
        self.compact_on_checkpoint = compact_on_checkpoint
        self._since_checkpoint = 0

    def _record(self, group_id: str, kind: str, user: str) -> None:
        self.log.append(group_id, kind, user, self.admin_id,
                        self._signing_key)
        if self.checkpoint_every is None:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self._since_checkpoint = 0
            checkpoint = self.log.checkpoint(self.admin_id,
                                             self._signing_key)
            if self.compact_on_checkpoint:
                self.log.compact(checkpoint)

    def create_group(self, group_id: str, members) -> None:
        self.admin.create_group(group_id, members)
        self._record(group_id, "create", "")

    def add_user(self, group_id: str, user: str) -> None:
        self.admin.add_user(group_id, user)
        self._record(group_id, "add", user)

    def remove_user(self, group_id: str, user: str) -> None:
        self.admin.remove_user(group_id, user)
        self._record(group_id, "remove", user)

    def rekey(self, group_id: str) -> None:
        self.admin.rekey(group_id)
        self._record(group_id, "rekey", "")
