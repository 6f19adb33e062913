"""Unit and property tests for modular arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MathError
from repro.mathutils.modular import jacobi_symbol, modinv, modsqrt

PRIMES = [3, 5, 7, 11, 101, 65537, (1 << 127) - 1]


class TestModinv:
    def test_basic(self):
        assert modinv(3, 7) == 5
        assert (3 * modinv(3, 7)) % 7 == 1

    def test_identity(self):
        assert modinv(1, 97) == 1

    def test_negative_input_normalized(self):
        assert (modinv(-3, 7) * (-3)) % 7 == 1

    def test_non_invertible_raises(self):
        with pytest.raises(MathError):
            modinv(6, 9)

    def test_zero_raises(self):
        with pytest.raises(MathError):
            modinv(0, 13)

    def test_bad_modulus_raises(self):
        with pytest.raises(MathError):
            modinv(1, 0)

    @given(st.integers(min_value=1, max_value=10**9),
           st.sampled_from(PRIMES))
    @settings(max_examples=50)
    def test_inverse_property(self, a, p):
        if a % p == 0:
            return
        assert (a * modinv(a, p)) % p == 1


class TestJacobi:
    def test_known_values(self):
        # (2/7) = 1, (3/7) = -1, (0/7) handled as 0
        assert jacobi_symbol(2, 7) == 1
        assert jacobi_symbol(3, 7) == -1
        assert jacobi_symbol(0, 7) == 0

    def test_even_modulus_raises(self):
        with pytest.raises(MathError):
            jacobi_symbol(3, 8)

    @given(st.integers(min_value=1, max_value=10**6),
           st.sampled_from(PRIMES))
    @settings(max_examples=50)
    def test_matches_euler_criterion(self, a, p):
        if a % p == 0:
            return
        euler = pow(a, (p - 1) // 2, p)
        expected = 1 if euler == 1 else -1
        assert jacobi_symbol(a, p) == expected


class TestModsqrt:
    @given(st.integers(min_value=1, max_value=10**9),
           st.sampled_from(PRIMES))
    @settings(max_examples=50)
    def test_square_roundtrip(self, x, p):
        square = (x * x) % p
        root = modsqrt(square, p)
        assert (root * root) % p == square

    def test_zero(self):
        assert modsqrt(0, 7) == 0

    def test_non_residue_raises(self):
        with pytest.raises(MathError):
            modsqrt(3, 7)

    def test_p_equal_1_mod_4(self):
        # 13 ≡ 1 (mod 4) exercises the full Tonelli-Shanks path.
        root = modsqrt(10, 13)
        assert (root * root) % 13 == 10

    @pytest.mark.parametrize("name", ["toy64", "std160", "P-256"])
    def test_presets_residues_and_non_residues(self, name):
        # p ≡ 3 (mod 4) on all three: the root is a candidate power,
        # checked by squaring it.
        from repro.ec import P256
        from repro.pairing.params import preset
        p = P256.p if name == "P-256" else preset(name).p
        assert p % 4 == 3
        assert modsqrt(0, p) == 0 and modsqrt(p, p) == 0
        for x in (1, 2, 3, 0xDEADBEEF, p - 1, p // 3):
            square = x * x % p
            root = modsqrt(square, p)
            assert root in (x, p - x)
            assert modsqrt(square + p, p) == root     # input is reduced
            # -1 is a non-residue, hence so is the negative of a square.
            assert jacobi_symbol(p - square, p) == -1
            with pytest.raises(MathError):
                modsqrt(p - square, p)

    def test_large_prime_3_mod_4(self):
        p = (1 << 127) - 1  # Mersenne, ≡ 3 mod 4
        root = modsqrt(4, p)
        assert (root * root) % p == 4
