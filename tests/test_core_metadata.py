"""Metadata record codec and signature tests, envelope tests, serializer."""

import pytest

from repro.core.metadata import (
    GroupDescriptor,
    PartitionRecord,
    descriptor_path,
    group_dir,
    partition_path,
)
from repro.crypto import ecdsa
from repro.crypto.envelope import ENVELOPE_SIZE, unwrap_group_key, wrap_group_key
from repro.crypto.kdf import sha256
from repro.crypto.rng import DeterministicRng
from repro.errors import AuthenticationError, CryptoError, StorageError
from repro.serialize import Reader, Writer, join_signed, split_signed


@pytest.fixture(scope="module")
def admin_key():
    return ecdsa.generate_keypair(DeterministicRng("meta-admin"))


RECORD = PartitionRecord(
    group_id="team",
    partition_id=3,
    members=("alice", "bob"),
    ciphertext=b"C" * 90,
    envelope=b"Y" * ENVELOPE_SIZE,
)


class TestPartitionRecord:
    def test_signed_roundtrip(self, admin_key):
        data = RECORD.signed(admin_key)
        decoded = PartitionRecord.verify_and_decode(
            data, admin_key.public_key()
        )
        assert decoded == RECORD

    def test_foreign_signature_rejected(self, admin_key):
        other = ecdsa.generate_keypair(DeterministicRng("other-admin"))
        data = RECORD.signed(other)
        with pytest.raises(AuthenticationError):
            PartitionRecord.verify_and_decode(data, admin_key.public_key())

    def test_payload_tamper_rejected(self, admin_key):
        data = bytearray(RECORD.signed(admin_key))
        data[20] ^= 1
        with pytest.raises(AuthenticationError):
            PartitionRecord.verify_and_decode(bytes(data),
                                              admin_key.public_key())

    def test_crypto_bytes(self):
        assert RECORD.crypto_bytes() == 90 + ENVELOPE_SIZE

    def test_not_a_record(self, admin_key):
        descriptor = GroupDescriptor("g", 4, {}, epoch=0)
        data = descriptor.signed(admin_key)
        with pytest.raises(StorageError):
            PartitionRecord.verify_and_decode(data, admin_key.public_key())


class TestGroupDescriptor:
    def test_signed_roundtrip(self, admin_key):
        descriptor = GroupDescriptor(
            group_id="team", partition_capacity=100,
            user_to_partition={"alice": 0, "bob": 1}, epoch=7,
        )
        decoded = GroupDescriptor.verify_and_decode(
            descriptor.signed(admin_key), admin_key.public_key()
        )
        assert decoded == descriptor

    def test_tamper_rejected(self, admin_key):
        descriptor = GroupDescriptor("team", 10, {"a": 0}, epoch=1)
        data = bytearray(descriptor.signed(admin_key))
        data[15] ^= 0xFF
        with pytest.raises(AuthenticationError):
            GroupDescriptor.verify_and_decode(bytes(data),
                                              admin_key.public_key())


class TestPaths:
    def test_layout(self):
        assert partition_path("g", 2) == "/g/p2"
        assert descriptor_path("g") == "/g/descriptor"
        assert group_dir("g") == "/g"


class TestEnvelope:
    KEY = sha256(b"broadcast key")
    GK = bytes(range(32))

    def test_roundtrip(self, rng):
        envelope = wrap_group_key(self.KEY, self.GK, rng, aad=b"g")
        assert len(envelope) == ENVELOPE_SIZE
        assert unwrap_group_key(self.KEY, envelope, aad=b"g") == self.GK

    def test_wrong_key(self, rng):
        envelope = wrap_group_key(self.KEY, self.GK, rng)
        with pytest.raises(Exception):
            unwrap_group_key(sha256(b"other"), envelope)

    def test_wrong_aad(self, rng):
        envelope = wrap_group_key(self.KEY, self.GK, rng, aad=b"g1")
        with pytest.raises(Exception):
            unwrap_group_key(self.KEY, envelope, aad=b"g2")

    def test_size_enforced(self, rng):
        with pytest.raises(CryptoError):
            wrap_group_key(self.KEY, b"short", rng)
        with pytest.raises(CryptoError):
            wrap_group_key(b"short", self.GK, rng)
        with pytest.raises(CryptoError):
            unwrap_group_key(self.KEY, b"short")


class TestSerializer:
    def test_field_roundtrip(self):
        writer = (Writer().str_field("héllo").u32(42).u64(2**40)
                  .bytes_field(b"raw").str_list(["a", "b"]))
        reader = Reader(writer.getvalue())
        assert reader.str_field() == "héllo"
        assert reader.u32() == 42
        assert reader.u64() == 2**40
        assert reader.bytes_field() == b"raw"
        assert reader.str_list() == ["a", "b"]
        reader.expect_end()

    def test_truncation_detected(self):
        data = Writer().str_field("hello").getvalue()
        reader = Reader(data[:-1])
        with pytest.raises(StorageError):
            reader.str_field()

    def test_trailing_bytes_detected(self):
        reader = Reader(Writer().u32(1).getvalue() + b"x")
        reader.u32()
        with pytest.raises(StorageError):
            reader.expect_end()

    def test_u32_range(self):
        with pytest.raises(StorageError):
            Writer().u32(2**32)
        with pytest.raises(StorageError):
            Writer().u32(-1)

    def test_signed_envelope_roundtrip(self):
        data = join_signed(b"payload", b"signature")
        payload, signature = split_signed(data)
        assert payload == b"payload"
        assert signature == b"signature"

    def test_signed_envelope_corrupt(self):
        with pytest.raises(StorageError):
            split_signed(b"\x00\x00\x00\xff")
        with pytest.raises(StorageError):
            split_signed(b"ab")
