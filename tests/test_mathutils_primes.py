"""Tests for primality testing and prime generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicRng
from repro.errors import MathError
from repro.mathutils.primes import (
    gen_prime,
    is_probable_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 97, 65537, 2_147_483_647, (1 << 127) - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 561, 1729, 65536, 2_147_483_649]
# Carmichael numbers, the classic Fermat-test traps.
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]


class TestIsProbablePrime:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_primes_accepted(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_composites_rejected(self, c):
        assert not is_probable_prime(c)

    @pytest.mark.parametrize("c", CARMICHAELS)
    def test_carmichael_rejected(self, c):
        assert not is_probable_prime(c)

    @given(st.integers(min_value=2, max_value=3000))
    @settings(max_examples=100)
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n ** 0.5) + 1)) and n >= 2
        assert is_probable_prime(n) == by_trial

    def test_large_probabilistic_path(self):
        # 2^521 - 1 is a Mersenne prime; exercises the >bound branch.
        assert is_probable_prime((1 << 521) - 1)
        assert not is_probable_prime(((1 << 521) - 1) * 3)


class TestGenPrime:
    def test_bit_length_exact(self, rng):
        for bits in (16, 32, 64, 128):
            p = gen_prime(bits, rng.randint_below)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_condition_respected(self, rng):
        p = gen_prime(32, rng.randint_below, condition=lambda c: c % 4 == 3)
        assert p % 4 == 3

    def test_too_small_raises(self, rng):
        with pytest.raises(MathError):
            gen_prime(1, rng.randint_below)

    def test_deterministic_given_rng(self):
        a = gen_prime(48, DeterministicRng("x").randint_below)
        b = gen_prime(48, DeterministicRng("x").randint_below)
        assert a == b
