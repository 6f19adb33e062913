"""Pairing substrate tests: parameters, bilinearity, group wrappers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicRng
from repro.errors import PairingError, ParameterError
from repro.mathutils.primes import is_probable_prime
from repro.pairing import (
    G1Element,
    GTElement,
    PairingGroup,
    PairingParams,
    generate_params,
    preset,
    toy64,
)
from repro.pairing.miller import miller_lines
from tests.pairing_oracle import off_subgroup_point, tate_pairing_affine


class TestParams:
    def test_toy64_wellformed(self):
        params = toy64()
        assert params.p % 4 == 3
        assert (params.p + 1) % params.q == 0
        assert is_probable_prime(params.p)
        assert is_probable_prime(params.q)

    def test_preset_cached_and_deterministic(self):
        assert preset("toy64") is preset("toy64")
        assert preset("toy64").q == toy64().q

    def test_unknown_preset_raises(self):
        with pytest.raises(ParameterError):
            preset("nope")

    def test_generate_custom(self):
        params = generate_params(32, 64, DeterministicRng("custom"))
        assert params.q.bit_length() == 32
        assert params.p.bit_length() == 64
        group = PairingGroup(params)
        e = group.pair(group.g1, group.g1)
        assert not e.is_identity()

    def test_generate_rejects_tight_sizes(self):
        with pytest.raises(ParameterError):
            generate_params(32, 33, DeterministicRng("x"))

    def test_params_validation(self):
        good = toy64()
        with pytest.raises(ParameterError):
            PairingParams(q=good.q, p=good.p + 2, generator=good.generator)
        with pytest.raises(ParameterError):
            PairingParams(q=good.q, p=good.p, generator=(1, 1))

    def test_generator_has_order_q(self):
        params = toy64()
        group = PairingGroup(params)
        assert (group.g1 ** params.q).is_identity()
        assert not group.g1.is_identity()


class TestBilinearity:
    @given(a=st.integers(min_value=1, max_value=2**32),
           b=st.integers(min_value=1, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_bilinear(self, group, a, b):
        g = group.g1
        lhs = group.pair(g ** a, g ** b)
        rhs = group.pair(g, g) ** (a * b)
        assert lhs == rhs

    def test_nondegenerate(self, group):
        assert not group.pair(group.g1, group.g1).is_identity()

    def test_symmetric_arguments(self, group):
        g = group.g1
        assert group.pair(g ** 3, g ** 7) == group.pair(g ** 7, g ** 3)

    def test_identity_absorbs(self, group):
        g = group.g1
        assert group.pair(group.g1_identity(), g).is_identity()
        assert group.pair(g, group.g1_identity()).is_identity()

    def test_gt_order(self, group):
        e = group.gt_generator()
        assert (e ** group.q).is_identity()

    def test_inverse_argument(self, group):
        g = group.g1
        e = group.pair(g, g)
        assert group.pair(g.inverse(), g) == e.inverse()


class TestG1Element:
    def test_group_ops(self, group):
        g = group.g1
        assert g * g == g ** 2
        assert (g ** 5) / (g ** 2) == g ** 3
        assert (g * g.inverse()).is_identity()

    def test_exponent_reduced_mod_q(self, group):
        g = group.g1
        assert g ** (group.q + 5) == g ** 5

    def test_encode_roundtrip(self, group):
        g = group.g1 ** 42
        assert G1Element.decode(group, g.encode()) == g

    def test_multi_mul(self, group):
        g = group.g1
        result = group.multi_mul_g1([(2, g), (3, g ** 2)])
        assert result == g ** 8

    def test_hash_and_eq(self, group):
        assert group.g1 ** 3 == group.g1 ** 3
        assert hash(group.g1 ** 3) == hash(group.g1 ** 3)


class TestGTElement:
    def test_ops(self, group):
        e = group.gt_generator()
        assert e * e == e ** 2
        assert (e ** 5) / (e ** 2) == e ** 3
        assert (e * e.inverse()).is_identity()

    def test_inverse_is_conjugate(self, group):
        e = group.gt_generator() ** 7
        assert (e * e.inverse()).is_identity()

    def test_encode_roundtrip(self, group):
        e = group.gt_generator() ** 9
        assert GTElement.decode(group, e.encode()) == e

    def test_decode_malformed(self, group):
        with pytest.raises(PairingError):
            GTElement.decode(group, b"\x00")

    def test_decode_accepts_the_canonical_encoding_only(self, group):
        """A coordinate >= p would denote the same element under a second
        encoding; (0, 0) and other norm != 1 values are not in GT."""
        size = (group.p.bit_length() + 7) // 8
        a, b = (group.gt_generator() ** 5).raw

        def encoded(x, y):
            return x.to_bytes(size, "big") + y.to_bytes(size, "big")

        assert GTElement.decode(group, encoded(a, b)).raw == (a, b)
        assert GTElement.decode(group, encoded(1, 0)).is_identity()
        for x, y in [(group.p + 1, 0), (1, group.p), (group.p, 0),
                     (0, 0), (2, 0), (a, (b + 1) % group.p)]:
            with pytest.raises(PairingError):
                GTElement.decode(group, encoded(x, y))

    def test_tableless_pow_matches_square_and_multiply(self, group):
        """``__pow__`` without a table runs the Lucas ladder; with one,
        the windowed table — both must be the plain power."""
        from repro.fields.fp2 import fp2_pow
        e = group.pair(group.g1 ** 3, group.g1 ** 5)
        tabled = GTElement(group, e.raw).enable_precomputation()
        q = group.q
        for k in (0, 1, 2, q - 1, q, q + 1, 0xDEADBEEF, -1):
            expected = fp2_pow(e.raw, k % q, group.p)
            assert (e ** k).raw == expected
            assert (tabled ** k).raw == expected
        for raw in [(1, 0), (group.p - 1, 0)]:
            for k in (0, 1, q - 1, q):
                assert (GTElement(group, raw) ** k).raw == fp2_pow(
                    raw, k % q, group.p)

    def test_digest_stable_and_distinct(self, group):
        e = group.gt_generator()
        assert e.digest() == e.digest()
        assert e.digest() != (e ** 2).digest()
        assert len(e.digest()) == 32


class TestHashToScalar:
    def test_in_range_nonzero(self, group):
        for i in range(50):
            h = group.hash_to_scalar(f"user{i}")
            assert 1 <= h < group.q

    def test_deterministic(self, group):
        assert group.hash_to_scalar("alice") == group.hash_to_scalar("alice")

    def test_distinct(self, group):
        values = {group.hash_to_scalar(f"u{i}") for i in range(100)}
        assert len(values) == 100

    def test_accepts_bytes(self, group):
        assert group.hash_to_scalar(b"alice") == group.hash_to_scalar("alice")


def _oracle(group, a: G1Element, b: G1Element) -> GTElement:
    """``ê(a, b)`` by the textbook affine loop of ``tests/pairing_oracle``."""
    return GTElement(group, tate_pairing_affine(
        a.point.x, a.point.y, b.point.x, b.point.y, group.p, group.q))


_exponents = st.integers(min_value=1, max_value=2**48)


class TestMillerImplementations:
    """The one production ladder (cached Jacobian lines, shared loop,
    Lucas final exponent) must equal the affine reference."""

    @given(a=_exponents, b=_exponents)
    @settings(max_examples=15, deadline=None)
    def test_jacobian_matches_affine(self, group, a, b):
        P, Q = group.g1 ** a, group.g1 ** b
        assert group.pair(P, Q) == _oracle(group, P, Q)
        assert group.pair(Q, P) == _oracle(group, P, Q)

    def test_self_pairing_matches(self, group):
        assert group.pair(group.g1, group.g1) == _oracle(
            group, group.g1, group.g1)

    def test_affine_reference_rejects_wrong_order(self, group):
        """Both implementations enforce the subgroup check."""
        point = off_subgroup_point(group.curve, group.q, "edge-affine")
        with pytest.raises(PairingError):
            tate_pairing_affine(point.x, point.y, point.x, point.y,
                                group.p, group.q)

    @given(a1=_exponents, b1=_exponents, a2=_exponents, b2=_exponents)
    @settings(max_examples=15, deadline=None)
    def test_product_is_product_of_pairings(self, group, a1, b1, a2, b2):
        g = group.g1
        A1, B1, A2, B2 = g ** a1, g ** b1, g ** a2, g ** b2
        product = group.pair(A1, B1, A2, B2)
        assert product == group.pair(A1, B1) * group.pair(A2, B2)
        assert product == _oracle(group, A1, B1) * _oracle(group, A2, B2)

    def test_std160_product_matches_affine(self):
        group = PairingGroup(preset("std160"))
        g = group.g1
        A1, B1, A2, B2 = g ** 0xA11CE, g ** 0xB0B, g ** 0xCA201, g ** 0xDA7E
        expected = _oracle(group, A1, B1) * _oracle(group, A2, B2)
        assert group.pair(A1, B1, A2, B2) == expected
        assert group.pair(B1, A1, B2, A2) == expected
        assert group.pair(A1, B1) * group.pair(A2, B2) == expected

    def test_identity_terms_drop_out(self, group):
        g, one = group.g1, group.g1_identity()
        e = group.pair(g ** 5, g ** 9)
        assert group.pair(g ** 5, g ** 9, one, g) == e
        assert group.pair(g, one, g ** 5, g ** 9) == e
        assert group.pair(one, g, g, one).is_identity()

    def test_arguments_come_in_pairs(self, group):
        with pytest.raises(PairingError):
            group.pair(group.g1, group.g1, group.g1)

    def test_cached_lines_give_the_same_value(self, group):
        a, b = group.g1 ** 11, group.g1 ** 13
        first = group.pair(a, b)
        lines = a.miller_lines()
        assert group.pair(a, b) == first
        assert a.miller_lines() is lines
        assert lines == miller_lines(a.point.x, a.point.y, group.p, group.q)
        assert len(lines) == group.q.bit_length() - 1
        # A fresh element with the same point starts without a table.
        assert group.pair(G1Element(group, a.point), b) == first


def _lines_unshared(px, py, p, q):
    """The line table by the formulas ``miller_lines`` had before it
    shared products: the tangent's ``2Y·Z²·Z`` and the chord's ``Z·λ'``
    computed afresh, not taken from the doubled ``Z3`` and ``λ'Z``."""
    X, Y, Z = px, py, 1
    steps = []
    for bit in bin(q)[3:]:
        step = ()
        if Y == 0 and Z:
            X, Y, Z = 1, 1, 0
        elif Z:
            ZZ, YY = Z * Z % p, Y * Y % p
            n = (3 * X * X + ZZ * ZZ) % p
            step = (((n * X - 2 * YY) % p, n * ZZ % p,
                     2 * Y * ZZ % p * Z % p),)
            S = 4 * X * YY % p
            X3 = (n * n - 2 * S) % p
            X, Y, Z = X3, (n * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p
        if bit == "1" and not Z:
            X, Y, Z = px, py, 1
        elif bit == "1":
            ZZ = Z * Z % p
            theta = (Y - py * Z % p * ZZ) % p
            lam = (X - px * ZZ) % p
            if lam == 0:
                X, Y, Z = 1, 1, 0
            else:
                lam_z = lam * Z % p
                step += (((theta * px - lam_z * py) % p, theta, lam_z),)
                ll = lam * lam % p
                lll, v = ll * lam % p, X * ll % p
                X3 = (theta * theta + lll - 2 * v) % p
                X, Y, Z = X3, (theta * (v - X3) - Y * lll) % p, Z * lam % p
        steps.append(step)
    return steps


@pytest.mark.parametrize("name", ["toy64", "std160"])
def test_line_tables_equal_the_unshared_formulas(name):
    """Taking the tangent's ``C`` as ``Z3·Z²`` and the chord's ``Z3`` as
    ``λ'Z`` leaves every line of the table as it was."""
    group = PairingGroup(preset(name))
    for k in (1, 0xA11CE, group.q - 1, group.hash_to_scalar("lines")):
        point = (group.g1 ** k).point
        assert miller_lines(point.x, point.y, group.p, group.q) == \
            _lines_unshared(point.x, point.y, group.p, group.q)


class TestMillerEdgeCases:
    def test_pairing_of_low_order_rejected(self, group):
        """Points outside the order-q subgroup must be rejected."""
        point = off_subgroup_point(group.curve, group.q, "edge")
        with pytest.raises(PairingError):
            miller_lines(point.x, point.y, group.p, group.q)
        with pytest.raises(PairingError):
            group.pair(G1Element(group, point), group.g1)
        with pytest.raises(PairingError):
            group.pair(group.g1, group.g1, G1Element(group, point), group.g1)

    def test_consistency_across_generators(self, group):
        """e(g^a, g) == e(g, g^a) for an independent sanity sweep."""
        g = group.g1
        for a in (2, 3, 17, 1 << 20):
            assert group.pair(g ** a, g) == group.pair(g, g ** a)
