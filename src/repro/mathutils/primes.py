"""Primality testing and prime generation (Miller-Rabin based)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MathError

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
    317, 331, 337, 347, 349,
]

# Deterministic Miller-Rabin witness sets (Sorenson & Webster) — exact for
# n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """Return True when ``a`` witnesses the compositeness of odd ``n > 2``."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 40,
                      rand: Optional[Callable[[int], int]] = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic (exact) for ``n`` below ~3.3e24; otherwise probabilistic
    with error probability at most ``4**-rounds``.

    ``rand(k)`` must return a uniform integer in ``[0, k)``; defaults to a
    fixed-stride derandomized choice of bases, which is adequate for the
    adversary-free parameter-generation use in this package.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1]
        return not any(_miller_rabin_witness(n, a) for a in witnesses)
    for i in range(rounds):
        if rand is not None:
            a = 2 + rand(n - 3)
        else:
            a = _SMALL_PRIMES[i % len(_SMALL_PRIMES)] + i // len(_SMALL_PRIMES)
        if _miller_rabin_witness(n, a % (n - 2) or 2):
            return False
    return True


def gen_prime(bits: int, rand: Callable[[int], int],
              condition: Optional[Callable[[int], bool]] = None,
              max_tries: int = 100_000) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    ``rand(k)`` returns a uniform integer in ``[0, k)``.  ``condition`` may
    impose an extra predicate (e.g. ``p % 4 == 3``).
    """
    if bits < 2:
        raise MathError("cannot generate a prime below 2 bits")
    for _ in range(max_tries):
        candidate = rand(1 << (bits - 1)) | (1 << (bits - 1)) | 1
        if condition is not None and not condition(candidate):
            continue
        if is_probable_prime(candidate):
            return candidate
    raise MathError(f"failed to find a {bits}-bit prime in {max_tries} tries")
