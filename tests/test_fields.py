"""Field-axiom and operational tests for F_p and F_p²."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicRng
from repro.errors import MathError, ParameterError
from repro.fields.fp2 import (
    fp2_conj,
    fp2_inv,
    fp2_lucas_pow,
    fp2_mul,
    fp2_pow,
    fp2_sqr,
)
from tests.field_wrappers import Fp, Fp2

P = (1 << 127) - 1  # Mersenne prime, ≡ 3 (mod 4)
F = Fp(P)
F2 = Fp2(P)

elems = st.integers(min_value=0, max_value=P - 1)
pairs = st.tuples(elems, elems)


class TestFpAxioms:
    @given(elems, elems, elems)
    @settings(max_examples=30)
    def test_ring_axioms(self, a, b, c):
        x, y, z = F(a), F(b), F(c)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(elems)
    @settings(max_examples=30)
    def test_additive_inverse(self, a):
        x = F(a)
        assert (x + (-x)).is_zero()

    @given(elems.filter(lambda v: v != 0))
    @settings(max_examples=30)
    def test_multiplicative_inverse(self, a):
        x = F(a)
        assert x * x.inverse() == F.one()
        assert x / x == 1

    @given(elems, st.integers(min_value=0, max_value=50))
    @settings(max_examples=30)
    def test_pow_matches_repeated_mul(self, a, e):
        x = F(a)
        expected = F.one()
        for _ in range(e):
            expected = expected * x
        assert x ** e == expected

    def test_negative_exponent(self):
        x = F(17)
        assert x ** -1 == x.inverse()
        assert x ** -3 == (x ** 3).inverse()


class TestFpOps:
    def test_sqrt_of_square(self):
        x = F(123456789)
        root = (x * x).sqrt()
        assert root * root == x * x

    def test_sqrt_non_residue_raises(self):
        non_residue = next(
            v for v in range(2, 100) if not F(v).is_square()
        )
        with pytest.raises(MathError):
            F(non_residue).sqrt()

    def test_mixed_field_arithmetic_raises(self):
        other = Fp(97)
        with pytest.raises(MathError):
            F(1) + other(1)

    def test_int_coercion(self):
        assert F(5) + 3 == F(8)
        assert 3 + F(5) == F(8)
        assert 10 - F(3) == F(7)
        assert 2 / F(4) == F(2) * F(4).inverse()

    def test_random_in_range(self):
        rng = DeterministicRng("fp")
        for _ in range(10):
            assert 0 <= F.random(rng).value < P
            assert F.random_nonzero(rng).value != 0

    def test_field_equality_and_hash(self):
        assert Fp(7) == Fp(7)
        assert hash(Fp(7)) == hash(Fp(7))
        assert Fp(7) != Fp(11)

    def test_zero_division_raises(self):
        with pytest.raises(MathError):
            F(1) / F(0)


class TestFp2Construction:
    def test_requires_3_mod_4(self):
        with pytest.raises(ParameterError):
            Fp2(13)  # 13 ≡ 1 (mod 4)

    def test_i_squared_is_minus_one(self):
        i = F2.i()
        assert i * i == F2(-1)


class TestFp2Axioms:
    @given(pairs, pairs, pairs)
    @settings(max_examples=30)
    def test_ring_axioms(self, a, b, c):
        x, y, z = F2(a), F2(b), F2(c)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(pairs.filter(lambda t: t != (0, 0)))
    @settings(max_examples=30)
    def test_inverse(self, a):
        x = F2(a)
        assert (x * x.inverse()).is_one()

    @given(pairs)
    @settings(max_examples=30)
    def test_conjugation_is_field_automorphism(self, a):
        x = F2(a)
        y = F2((3, 5))
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        # Norm lands in F_p (imaginary part zero).
        assert (x * x.conjugate()).b == 0

    @given(pairs, st.integers(min_value=0, max_value=40))
    @settings(max_examples=30)
    def test_pow(self, a, e):
        x = F2(a)
        expected = F2.one()
        for _ in range(e):
            expected = expected * x
        assert x ** e == expected


class TestFp2RawOps:
    """The tuple fast path must agree with the wrapper."""

    @given(pairs, pairs)
    @settings(max_examples=30)
    def test_raw_mul_matches_wrapper(self, a, b):
        assert fp2_mul(a, b, P) == (F2(a) * F2(b)).raw

    @given(pairs)
    @settings(max_examples=30)
    def test_raw_sqr_matches_mul(self, a):
        assert fp2_sqr(a, P) == fp2_mul(a, a, P)

    @given(pairs.filter(lambda t: t != (0, 0)))
    @settings(max_examples=30)
    def test_raw_inv(self, a):
        assert fp2_mul(a, fp2_inv(a, P), P) == (1, 0)

    def test_raw_inv_zero_raises(self):
        with pytest.raises(MathError):
            fp2_inv((0, 0), P)

    def test_raw_pow_negative(self):
        x = (3, 4)
        assert fp2_mul(fp2_pow(x, -2, P), fp2_pow(x, 2, P), P) == (1, 0)

    def test_conj(self):
        assert fp2_conj((3, 4), P) == (3, P - 4)


def _norm1(f):
    """``f^(p-1) = conj(f)/f``: an arbitrary element of the norm-1
    subgroup (order ``p + 1``) of F_p²*."""
    return fp2_mul(fp2_conj(f, P), fp2_inv(f, P), P)


class TestLucasPow:
    """The Lucas ladder equals square-and-multiply on norm-1 inputs."""

    @given(pairs.filter(lambda t: t != (0, 0)),
           st.integers(min_value=-(1 << 130), max_value=1 << 130))
    @settings(max_examples=60)
    def test_matches_fp2_pow(self, f, e):
        x = _norm1(f)
        assert fp2_lucas_pow(x, e, P) == fp2_pow(x, e, P)

    @pytest.mark.parametrize("e", [0, 1, 2, 3, P, P + 1])
    @pytest.mark.parametrize("f", [(3, 4), (1, 1), (0, 5), (7, 0)])
    def test_edge_exponents(self, f, e):
        # (1, 1) maps to (0, -1): a norm-1 base with zero real part;
        # (0, 5) and (7, 0) map to the real bases (-1, 0) and (1, 0).
        x = _norm1(f)
        assert fp2_lucas_pow(x, e, P) == fp2_pow(x, e, P)

    @pytest.mark.parametrize("x", [(1, 0), (P - 1, 0), (0, 1), (0, P - 1)])
    def test_units(self, x):
        for e in (0, 1, 2, 3, 4, P, P + 1):
            assert fp2_lucas_pow(x, e, P) == fp2_pow(x, e, P)

    def test_group_order(self):
        x = _norm1((3, 4))
        assert fp2_lucas_pow(x, P + 1, P) == (1, 0)
        assert fp2_lucas_pow(x, P, P) == fp2_conj(x, P)
        assert fp2_lucas_pow(x, -1, P) == fp2_conj(x, P)
