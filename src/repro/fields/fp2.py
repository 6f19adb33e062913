"""Quadratic extension field F_p² = F_p[i] / (i² + 1).

Requires ``p ≡ 3 (mod 4)`` so that ``-1`` is a non-residue and the polynomial
``i² + 1`` is irreducible.  This is the target group field of the type-A
(supersingular, embedding degree 2) pairing used throughout the paper's
implementation via PBC.

Elements are ``a + b·i`` as raw ``(a, b)`` tuples: the fast path
(:func:`fp2_mul`, :func:`fp2_sqr`, ...) of the Miller loop and GT.  No
library code needs an operator-overloaded wrapper, so the one the field
tests use lives beside them.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import MathError
from repro.mathutils.modular import modinv

RawFp2 = Tuple[int, int]


# ---------------------------------------------------------------------------
# Raw-tuple arithmetic (hot path)
# ---------------------------------------------------------------------------

def fp2_mul(x: RawFp2, y: RawFp2, p: int) -> RawFp2:
    a, b = x
    c, d = y
    # Karatsuba: (a+bi)(c+di) = (ac - bd) + ((a+b)(c+d) - ac - bd) i
    ac = a * c
    bd = b * d
    return ((ac - bd) % p, ((a + b) * (c + d) - ac - bd) % p)


def fp2_sqr(x: RawFp2, p: int) -> RawFp2:
    a, b = x
    # (a+bi)² = (a-b)(a+b) + 2ab·i
    return (((a - b) * (a + b)) % p, (2 * a * b) % p)


def fp2_conj(x: RawFp2, p: int) -> RawFp2:
    return (x[0], (-x[1]) % p)


def fp2_inv(x: RawFp2, p: int) -> RawFp2:
    a, b = x
    norm = (a * a + b * b) % p
    if norm == 0:
        raise MathError("zero has no inverse in F_p2")
    ninv = modinv(norm, p)
    return ((a * ninv) % p, ((-b) * ninv) % p)


def fp2_pow(x: RawFp2, e: int, p: int) -> RawFp2:
    if e < 0:
        return fp2_pow(fp2_inv(x, p), -e, p)
    result: RawFp2 = (1, 0)
    base = x
    while e:
        if e & 1:
            result = fp2_mul(result, base, p)
        base = fp2_sqr(base, p)
        e >>= 1
    return result


def fp2_lucas_pow(x: RawFp2, e: int, p: int) -> RawFp2:
    """``x^e`` for ``x = a + b·i`` of norm 1 (``a² + b² = 1``), which
    every element of the pairing's target group is.

    With ``x⁻¹ = conj(x)`` the real parts ``c_k = Re(x^k)`` obey the Lucas
    recurrences ``c_2k = 2c_k² - 1`` and ``c_2k+1 = 2·c_k·c_k+1 - a``, so a
    ladder over ``(c_k, c_k+1)`` costs one squaring and one multiplication
    in F_p per exponent bit — against about 3.5 F_p² operations for
    :func:`fp2_pow` — and ``Im(x^e)`` falls out of ``x^(e+1) = x^e · x``
    for one inversion of ``b``.  The result is undefined off the norm-1
    subgroup (except for real ``x``, where this is ``a^e``).
    """
    a, b = x
    if e < 0:
        e, b = -e, -b % p
    if b == 0 or e == 0:
        return (pow(a, e, p), 0)
    lo, hi = 1, a                # (c_k, c_k+1), k = 0
    for bit in bin(e)[2:]:
        if bit == "1":
            lo, hi = (2 * lo * hi - a) % p, (2 * hi * hi - 1) % p
        else:
            lo, hi = (2 * lo * lo - 1) % p, (2 * lo * hi - a) % p
    # c_e+1 = a·c_e - b·Im(x^e)
    return (lo, (a * lo - hi) * pow(b, -1, p) % p)
