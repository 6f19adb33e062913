"""Fuzz tests: decoders must fail closed with library exceptions.

Everything that parses attacker-reachable bytes (cloud objects, wire
encodings) must raise a :class:`~repro.errors.ReproError` subclass on
malformed input — never `UnicodeDecodeError`, `struct.error`, `KeyError`
or similar, which callers do not guard against.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ibbe
from repro.core.metadata import GroupDescriptor, PartitionRecord
from repro.crypto import ecdsa, ecies
from repro.crypto.rng import DeterministicRng
from repro.ec.curve import Point
from repro.ec.p256 import P256
from repro.errors import ReproError
from repro.pairing.group import G1Element, GTElement
from repro.serialize import Reader, split_signed

KEY = ecdsa.generate_keypair(DeterministicRng("fuzz")).public_key()

junk = st.binary(max_size=200)


def _assert_fails_closed(fn, data):
    try:
        fn(data)
    except ReproError:
        pass
    except Exception as exc:  # noqa: BLE001 — that's the point of the test
        pytest.fail(f"leaked non-library exception {type(exc).__name__}: {exc}")


class TestMetadataFuzz:
    @given(junk)
    @settings(max_examples=60)
    def test_partition_record(self, data):
        _assert_fails_closed(
            lambda d: PartitionRecord.verify_and_decode(d, KEY), data
        )

    @given(junk)
    @settings(max_examples=60)
    def test_group_descriptor(self, data):
        _assert_fails_closed(
            lambda d: GroupDescriptor.verify_and_decode(d, KEY), data
        )

    @given(junk)
    @settings(max_examples=40)
    def test_split_signed(self, data):
        _assert_fails_closed(split_signed, data)

    @given(junk)
    @settings(max_examples=40)
    def test_reader_str_field(self, data):
        _assert_fails_closed(lambda d: Reader(d).str_field(), data)


class TestCryptoFuzz:
    @given(junk)
    @settings(max_examples=40)
    def test_point_decode(self, data):
        _assert_fails_closed(lambda d: Point.decode(P256, d), data)

    @given(st.integers(min_value=0, max_value=2 ** 256 - 1),
           st.sampled_from([2, 3]), st.sampled_from([b"", b"\x00"]))
    @settings(max_examples=60)
    def test_point_decode_is_injective(self, x, prefix, pad):
        """Whatever decodes re-encodes to the same bytes: no zero-padded
        x, no x >= p standing in for x - p."""
        data = bytes([prefix]) + pad + x.to_bytes(32, "big")
        try:
            point = Point.decode(P256, data)
        except ReproError:
            return
        assert point.encode() == data

    @given(data=junk)
    @settings(max_examples=40)
    def test_g1_decode(self, group, data):
        _assert_fails_closed(lambda d: G1Element.decode(group, d), data)

    @given(data=junk)
    @settings(max_examples=40)
    def test_gt_decode(self, group, data):
        _assert_fails_closed(lambda d: GTElement.decode(group, d), data)

    @given(st.integers(min_value=0, max_value=2 ** 32), st.booleans(),
           st.booleans(), st.sampled_from([0, 0, 1, -1]))
    @settings(max_examples=60)
    def test_gt_decode_is_injective(self, group, k, wrap_a, wrap_b, nudge):
        """One GT element has one byte string: a coordinate >= p standing
        in for its residue is refused, and so is a value off the norm-1
        circle; what decodes re-encodes to the same bytes."""
        p = group.p
        size = (p.bit_length() + 7) // 8
        a, b = (group.gt_generator() ** k).raw
        a = a + wrap_a * p
        b = (b + nudge) % p + wrap_b * p
        if max(a, b).bit_length() > 8 * size:
            return                      # the wrapped value does not fit
        data = a.to_bytes(size, "big") + b.to_bytes(size, "big")
        if wrap_a or wrap_b or (a * a + b * b) % p != 1:
            with pytest.raises(ReproError):
                GTElement.decode(group, data)
        else:
            assert GTElement.decode(group, data).encode() == data

    @given(data=junk)
    @settings(max_examples=40)
    def test_ibbe_ciphertext_decode(self, group, data):
        _assert_fails_closed(
            lambda d: ibbe.IbbeCiphertext.decode(group, d), data
        )
        _assert_fails_closed(
            lambda d: ibbe.IbbeCiphertext.decode_header(group, d), data
        )

    @given(data=junk)
    @settings(max_examples=40)
    def test_ibbe_public_key_decode(self, group, data):
        _assert_fails_closed(
            lambda d: ibbe.IbbePublicKey.decode(d, group), data
        )
        _assert_fails_closed(
            lambda d: ibbe.IbbePublicKey.decode_bases(d, group), data
        )

    @given(junk)
    @settings(max_examples=40)
    def test_ecies_decrypt(self, data):
        key = ecies.generate_keypair(DeterministicRng("fuzz-ecies"))
        _assert_fails_closed(key.decrypt, data)

    @given(junk)
    @settings(max_examples=40)
    def test_ecdsa_pubkey_decode(self, data):
        _assert_fails_closed(ecdsa.EcdsaPublicKey.decode, data)
