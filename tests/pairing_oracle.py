"""Textbook affine Miller loop — the oracle the pairing tests cross-check
the production ladder (``repro.pairing.miller``) against.

One modular inversion per step, no scaling, no caching, no sharing: slow
and obviously the definition.  It shares only the field arithmetic and
the final exponent's *definition* (``f^((p²-1)/q)`` by plain
square-and-multiply) with the code under test.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.rng import DeterministicRng
from repro.ec.curve import Curve, Point
from repro.errors import PairingError
from repro.fields.fp2 import RawFp2, fp2_mul, fp2_pow, fp2_sqr
from repro.mathutils.modular import jacobi_symbol, modsqrt

Affine = Optional[Tuple[int, int]]  # None is the point at infinity


def off_subgroup_point(curve: Curve, q: int, seed: str) -> Point:
    """A point of ``y² = x³ + x`` whose order does not divide ``q`` (a
    random point NOT multiplied by the cofactor)."""
    rng = DeterministicRng(seed)
    while True:
        x = rng.randint_below(curve.p)
        rhs = (pow(x, 3, curve.p) + x) % curve.p
        if rhs == 0 or jacobi_symbol(rhs, curve.p) != 1:
            continue
        point = curve.point(x, modsqrt(rhs, curve.p))
        if not (point * q).is_infinity():
            return point


def tate_pairing_affine(px: int, py: int, qx: int, qy: int,
                        p: int, q: int) -> RawFp2:
    """Reduced Tate pairing ``e(P, φ(Q))`` on ``y² = x³ + x`` over F_p with
    ``φ(x, y) = (-x, i·y)``; raises :class:`PairingError` unless ``P`` has
    order ``q``."""
    xq = (-qx) % p
    yq = qy % p

    f: RawFp2 = (1, 0)
    v: Affine = (px % p, py % p)
    base = (px % p, py % p)

    for bit in bin(q)[3:]:
        f = fp2_sqr(f, p)
        v, line = _double_step(v, xq, yq, p)
        if line is not None:
            f = fp2_mul(f, line, p)
        if bit == "1":
            v, line = _add_step(v, base, xq, yq, p)
            if line is not None:
                f = fp2_mul(f, line, p)
    if v is not None:
        raise PairingError("Miller loop did not terminate at infinity; "
                           "point is not in the order-q subgroup")
    if f == (0, 0):
        raise PairingError("degenerate Miller value")
    return fp2_pow(f, (p * p - 1) // q, p)


def _double_step(v: Affine, xq: int, yq: int,
                 p: int) -> Tuple[Affine, Optional[RawFp2]]:
    """Double ``v`` and return the tangent line evaluated at the distorted Q.

    Returns ``(2·v, line)`` where ``line`` is None when it is a vertical
    (eliminated) or the point is infinity.
    """
    if v is None:
        return None, None
    x, y = v
    if y == 0:
        # Tangent is vertical; 2v = infinity; line eliminated.
        return None, None
    lam = (3 * x * x + 1) * pow(2 * y, -1, p) % p
    x3 = (lam * lam - 2 * x) % p
    y3 = (lam * (x - x3) - y) % p
    # l(Q') = y' - y - λ(x' - x) with x' = xq (already negated), y' = yq·i:
    # real part = -y - λ(xq - x); imaginary part = yq.
    c = (lam * (xq - x) * -1 - y) % p
    return (x3, y3), (c, yq)


def _add_step(v: Affine, base: Tuple[int, int], xq: int, yq: int,
              p: int) -> Tuple[Affine, Optional[RawFp2]]:
    """Add ``base`` to ``v`` and return the chord line evaluated at Q'."""
    if v is None:
        # Line through infinity and base is vertical — eliminated.
        return base, None
    x1, y1 = v
    x2, y2 = base
    if x1 == x2:
        if (y1 + y2) % p == 0:
            # v == -base: vertical chord, sum is infinity, line eliminated.
            return None, None
        return _double_step(v, xq, yq, p)
    lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    c = (lam * (xq - x1) * -1 - y1) % p
    return (x3, y3), (c, yq)
