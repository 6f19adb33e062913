"""Group metadata records stored on the cloud.

Two record types implement the paper's bi-level hierarchy (§V-A):

* :class:`PartitionRecord` — one per partition at ``/<group>/p<id>``:
  member identities, the IBBE ciphertext ``c_p`` and the group-key envelope
  ``y_p``.  Identities are stored in the clear — the model explicitly does
  not hide membership (§II).
* :class:`GroupDescriptor` — at ``/<group>/descriptor``: partition size and
  the user→partition mapping ("a metadata structure that keeps the mapping
  between users and partitions", §IV-C).

Records are signed by the administrator (the model authenticates
membership operations, §II); clients refuse unsigned or mis-signed
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.crypto import ecdsa
from repro.errors import AuthenticationError, StorageError
from repro.serialize import Reader, Writer, join_signed, split_signed

_PARTITION_MAGIC = b"PREC1"
_DESCRIPTOR_MAGIC = b"GDSC1"


@dataclass(frozen=True)
class PartitionRecord:
    group_id: str
    partition_id: int
    members: Tuple[str, ...]
    ciphertext: bytes     # IbbeCiphertext encoding
    envelope: bytes       # y_p

    def crypto_bytes(self) -> int:
        """Size of the cryptographic payload only (the paper's
        'group metadata expansion' metric: ciphertext + wrapped key)."""
        return len(self.ciphertext) + len(self.envelope)

    def payload(self) -> bytes:
        writer = Writer()
        writer.bytes_field(_PARTITION_MAGIC)
        writer.str_field(self.group_id)
        writer.u32(self.partition_id)
        writer.str_list(self.members)
        writer.bytes_field(self.ciphertext)
        writer.bytes_field(self.envelope)
        return writer.getvalue()

    def signed(self, key: ecdsa.EcdsaPrivateKey) -> bytes:
        return sign_all(key, [self])[0]

    @classmethod
    def verify_and_decode(cls, data: bytes,
                          admin_key: ecdsa.EcdsaPublicKey,
                          ) -> "PartitionRecord":
        payload, signature = split_signed(data)
        try:
            admin_key.verify(payload, signature)
        except AuthenticationError as exc:
            raise AuthenticationError(
                "partition record not signed by a trusted administrator"
            ) from exc
        return cls.decode_payload(payload)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "PartitionRecord":
        reader = Reader(payload)
        if reader.bytes_field() != _PARTITION_MAGIC:
            raise StorageError("not a partition record")
        record = cls(
            group_id=reader.str_field(),
            partition_id=reader.u32(),
            members=tuple(reader.str_list()),
            ciphertext=reader.bytes_field(),
            envelope=reader.bytes_field(),
        )
        reader.expect_end()
        return record


@dataclass(frozen=True)
class GroupDescriptor:
    group_id: str
    partition_capacity: int
    user_to_partition: Dict[str, int]
    epoch: int    # bumped on every membership operation
    #: Partition-id allocation cursor.  Ids are never reused, so the
    #: cursor must survive an administrator rebuilding its state from
    #: the cloud — deriving it from the *surviving* partitions would
    #: re-issue the id of a deleted top partition after a crash.
    next_partition_id: int = 0

    def payload(self) -> bytes:
        writer = Writer()
        writer.bytes_field(_DESCRIPTOR_MAGIC)
        writer.str_field(self.group_id)
        writer.u32(self.partition_capacity)
        writer.u64(self.epoch)
        writer.u32(self.next_partition_id)
        writer.u32(len(self.user_to_partition))
        for user in sorted(self.user_to_partition):
            writer.str_field(user)
            writer.u32(self.user_to_partition[user])
        return writer.getvalue()

    def signed(self, key: ecdsa.EcdsaPrivateKey) -> bytes:
        return sign_all(key, [self])[0]

    @classmethod
    def verify_and_decode(cls, data: bytes,
                          admin_key: ecdsa.EcdsaPublicKey,
                          ) -> "GroupDescriptor":
        payload, signature = split_signed(data)
        try:
            admin_key.verify(payload, signature)
        except AuthenticationError as exc:
            raise AuthenticationError(
                "group descriptor not signed by a trusted administrator"
            ) from exc
        reader = Reader(payload)
        if reader.bytes_field() != _DESCRIPTOR_MAGIC:
            raise StorageError("not a group descriptor")
        group_id = reader.str_field()
        capacity = reader.u32()
        epoch = reader.u64()
        next_pid = reader.u32()
        count = reader.u32()
        mapping = {}
        for _ in range(count):
            user = reader.str_field()
            mapping[user] = reader.u32()
        reader.expect_end()
        return cls(
            group_id=group_id, partition_capacity=capacity,
            user_to_partition=mapping, epoch=epoch,
            next_partition_id=next_pid,
        )


def sign_all(key: ecdsa.EcdsaPrivateKey,
             records: Sequence[Union[PartitionRecord, GroupDescriptor]],
             ) -> List[bytes]:
    """Each record's :meth:`~PartitionRecord.signed` bytes, every
    signature from one :meth:`~repro.crypto.ecdsa.EcdsaPrivateKey.sign_many`
    call — how one membership commit signs its descriptor and records."""
    payloads = [record.payload() for record in records]
    return [join_signed(payload, signature) for payload, signature
            in zip(payloads, key.sign_many(payloads))]


def partition_path(group_id: str, partition_id: int) -> str:
    return f"/{group_id}/p{partition_id}"


def sealed_key_path(group_id: str) -> str:
    """Where the sealed group key is stored (Algorithm 1 stores
    ``sealed_gk`` alongside the partition metadata; the blob is opaque to
    everyone but the enclave that sealed it)."""
    return f"/{group_id}/sealed-gk"


def descriptor_path(group_id: str) -> str:
    return f"/{group_id}/descriptor"


def group_dir(group_id: str) -> str:
    return f"/{group_id}"
