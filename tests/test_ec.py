"""Elliptic-curve group-law and encoding tests (P-256 and a toy curve)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicRng
from repro.ec import P256, Curve, Point
from repro.ec.hashing import hash_to_point
from repro.errors import CurveError, ParameterError

scalars = st.integers(min_value=0, max_value=P256.order - 1)
small_scalars = st.integers(min_value=0, max_value=1000)


class TestCurveConstruction:
    def test_singular_curve_rejected(self):
        with pytest.raises(ParameterError):
            Curve(p=23, a=0, b=0)

    def test_point_validation(self):
        with pytest.raises(CurveError):
            P256.point(1, 1)

    def test_generator_on_curve(self):
        assert P256.generator.is_on_curve()

    def test_generator_has_order_n(self):
        assert (P256.generator * P256.order).is_infinity()


class TestGroupLaws:
    @given(small_scalars, small_scalars)
    @settings(max_examples=20, deadline=None)
    def test_addition_commutes(self, a, b):
        g = P256.generator
        assert g * a + g * b == g * b + g * a

    @given(small_scalars, small_scalars)
    @settings(max_examples=20, deadline=None)
    def test_scalar_distributes(self, a, b):
        g = P256.generator
        assert g * a + g * b == g * (a + b)

    def test_identity_element(self):
        g = P256.generator
        inf = P256.infinity()
        assert g + inf == g
        assert inf + g == g
        assert inf + inf == inf

    def test_inverse_element(self):
        g = P256.generator
        assert (g + (-g)).is_infinity()

    def test_doubling_matches_addition(self):
        g = P256.generator
        assert g.double() == g + g
        assert g * 2 == g + g

    def test_negative_scalar(self):
        g = P256.generator
        assert g * -3 == -(g * 3)

    def test_zero_scalar(self):
        assert (P256.generator * 0).is_infinity()

    def test_order_of_2y_zero_point(self):
        # A curve where a point has y = 0 (order 2): y² = x³ - x over F_23.
        curve = Curve(p=23, a=-1, b=0)
        p2 = curve.point(1, 0)
        assert (p2 + p2).is_infinity()


class TestMultiMul:
    @given(st.lists(st.tuples(small_scalars, small_scalars),
                    min_size=0, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_matches_naive_sum(self, pairs):
        g = P256.generator
        terms = [(k, g * s) for k, s in pairs]
        expected = P256.infinity()
        for k, pt in terms:
            expected = expected + pt * k
        assert P256.multi_mul(terms) == expected

    def test_empty(self):
        assert P256.multi_mul([]).is_infinity()

    def test_negative_scalars(self):
        g = P256.generator
        assert P256.multi_mul([(-2, g), (5, g)]) == g * 3


class TestEncoding:
    def test_roundtrip(self):
        point = P256.generator * 12345
        assert Point.decode(P256, point.encode()) == point

    def test_infinity_roundtrip(self):
        inf = P256.infinity()
        assert Point.decode(P256, inf.encode()).is_infinity()

    def test_parity_preserved(self):
        for k in (2, 3, 7, 1001):
            point = P256.generator * k
            decoded = Point.decode(P256, point.encode())
            assert decoded.y == point.y

    def test_malformed_rejected(self):
        with pytest.raises(CurveError):
            Point.decode(P256, b"\x09" + bytes(32))

    def test_non_canonical_length_rejected(self):
        # One point, one byte string: a padded or truncated x used to
        # decode to the same point as the canonical encoding.
        encoded = (P256.generator * 7).encode()
        for data in (encoded[:1] + b"\x00" + encoded[1:],
                     encoded[:1] + encoded[2:], encoded + b"\x00",
                     encoded[:1], b"\x00\x00"):
            with pytest.raises(CurveError):
                Point.decode(P256, data)

    def test_unreduced_x_rejected(self):
        # x = 5 lifts on P-256 and x + p still fits 32 bytes; it used to
        # be reduced silently.
        assert Point.decode(P256, b"\x02" + (5).to_bytes(32, "big")).x == 5
        with pytest.raises(CurveError):
            Point.decode(P256, b"\x02" + (5 + P256.p).to_bytes(32, "big"))
        with pytest.raises(CurveError):
            Point.decode(P256, b"\x03" + P256.p.to_bytes(32, "big"))

    def test_lift_x(self):
        point = P256.generator * 99
        lifted = P256.lift_x(point.x, point.y % 2)
        assert lifted == point


class TestFixedBaseRange:
    def test_scalar_beyond_table_is_a_library_error(self):
        # No order to reduce by: the table covers |k| < 2^bits and says
        # so (this was an IndexError).
        curve = Curve(p=P256.p, a=P256.a, b=P256.b,
                      generator=(P256.generator.x, P256.generator.y))
        assert curve.mul_generator(2 ** 256 - 1) == \
            P256.generator * (2 ** 256 - 1)
        assert curve.mul_generator(-5) == -(P256.generator * 5)
        with pytest.raises(CurveError):
            curve.mul_generator(2 ** 262)

    def test_no_generator(self):
        with pytest.raises(CurveError):
            Curve(p=23, a=-1, b=0).mul_generator(3)


class TestHashToPoint:
    def test_deterministic(self):
        a = hash_to_point(P256, b"alice")
        b = hash_to_point(P256, b"alice")
        assert a == b

    def test_distinct_inputs_distinct_points(self):
        assert hash_to_point(P256, b"alice") != hash_to_point(P256, b"bob")

    def test_domain_separation(self):
        a = hash_to_point(P256, b"x", domain=b"d1")
        b = hash_to_point(P256, b"x", domain=b"d2")
        assert a != b

    def test_on_curve_and_in_subgroup(self):
        point = hash_to_point(P256, b"carol")
        assert point.is_on_curve()
        assert (point * P256.order).is_infinity()

    def test_cofactor_cleared_on_pairing_curve(self, group):
        point = hash_to_point(group.curve, b"dave")
        assert (point * group.q).is_infinity()
        assert not point.is_infinity()


class TestScalarMulAgainstReference:
    """Cross-check Jacobian ladder against a known P-256 vector."""

    def test_known_multiple(self):
        # k = 2: published doubling of the P-256 generator.
        doubled = P256.generator * 2
        assert doubled.x == int(
            "7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978", 16
        )
        assert doubled.y == int(
            "07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1", 16
        )

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_order_annihilates(self, k):
        point = P256.generator * k
        assert (point * P256.order).is_infinity()
