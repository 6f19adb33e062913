"""Quadratic extension field F_p² = F_p[i] / (i² + 1).

Requires ``p ≡ 3 (mod 4)`` so that ``-1`` is a non-residue and the polynomial
``i² + 1`` is irreducible.  This is the target group field of the type-A
(supersingular, embedding degree 2) pairing used throughout the paper's
implementation via PBC.

Elements are ``a + b·i``.  A raw-tuple fast path (:func:`fp2_mul`,
:func:`fp2_sqr`, ...) is provided for the Miller-loop inner code; the
:class:`Fp2Element` wrapper offers the ergonomic interface.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.errors import MathError, ParameterError
from repro.mathutils.modular import modinv

RawFp2 = Tuple[int, int]


# ---------------------------------------------------------------------------
# Raw-tuple arithmetic (hot path)
# ---------------------------------------------------------------------------

def fp2_add(x: RawFp2, y: RawFp2, p: int) -> RawFp2:
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def fp2_sub(x: RawFp2, y: RawFp2, p: int) -> RawFp2:
    return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)


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


def fp2_neg(x: RawFp2, p: int) -> RawFp2:
    return ((-x[0]) % p, (-x[1]) % p)


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


# ---------------------------------------------------------------------------
# Wrapper classes
# ---------------------------------------------------------------------------

IntoFp2 = Union["Fp2Element", int, RawFp2]


class Fp2:
    """The field F_p² for ``p ≡ 3 (mod 4)``."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if p % 4 != 3:
            raise ParameterError(
                f"F_p2 with i²=-1 requires p ≡ 3 (mod 4); got p % 4 = {p % 4}"
            )
        self.p = p

    def __call__(self, value: IntoFp2) -> "Fp2Element":
        if isinstance(value, Fp2Element):
            if value.field.p != self.p:
                raise MathError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return Fp2Element(self, (value % self.p, 0))
        a, b = value
        return Fp2Element(self, (a % self.p, b % self.p))

    def zero(self) -> "Fp2Element":
        return Fp2Element(self, (0, 0))

    def one(self) -> "Fp2Element":
        return Fp2Element(self, (1, 0))

    def i(self) -> "Fp2Element":
        return Fp2Element(self, (0, 1))

    def random(self, rng) -> "Fp2Element":
        return Fp2Element(
            self, (rng.randint_below(self.p), rng.randint_below(self.p))
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fp2) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp2", self.p))

    def __repr__(self) -> str:
        return f"Fp2({self.p})"


class Fp2Element:
    """An element ``a + b·i`` of F_p²."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Fp2, raw: RawFp2) -> None:
        self.field = field
        self.raw = raw

    @property
    def a(self) -> int:
        return self.raw[0]

    @property
    def b(self) -> int:
        return self.raw[1]

    def _coerce(self, other: IntoFp2) -> "Fp2Element":
        if isinstance(other, Fp2Element):
            if other.field.p != self.field.p:
                raise MathError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return Fp2Element(self.field, (other % self.field.p, 0))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: IntoFp2) -> "Fp2Element":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp2Element(self.field, fp2_add(self.raw, o.raw, self.field.p))

    __radd__ = __add__

    def __sub__(self, other: IntoFp2) -> "Fp2Element":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp2Element(self.field, fp2_sub(self.raw, o.raw, self.field.p))

    def __rsub__(self, other: IntoFp2) -> "Fp2Element":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp2Element(self.field, fp2_sub(o.raw, self.raw, self.field.p))

    def __mul__(self, other: IntoFp2) -> "Fp2Element":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp2Element(self.field, fp2_mul(self.raw, o.raw, self.field.p))

    __rmul__ = __mul__

    def __truediv__(self, other: IntoFp2) -> "Fp2Element":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __neg__(self) -> "Fp2Element":
        return Fp2Element(self.field, fp2_neg(self.raw, self.field.p))

    def __pow__(self, exponent: int) -> "Fp2Element":
        return Fp2Element(self.field, fp2_pow(self.raw, exponent, self.field.p))

    def inverse(self) -> "Fp2Element":
        return Fp2Element(self.field, fp2_inv(self.raw, self.field.p))

    def conjugate(self) -> "Fp2Element":
        return Fp2Element(self.field, fp2_conj(self.raw, self.field.p))

    def is_zero(self) -> bool:
        return self.raw == (0, 0)

    def is_one(self) -> bool:
        return self.raw == (1, 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.raw == (other % self.field.p, 0)
        return (
            isinstance(other, Fp2Element)
            and other.field.p == self.field.p
            and other.raw == self.raw
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.raw))

    def __repr__(self) -> str:
        return f"Fp2Element({self.raw[0]} + {self.raw[1]}i mod {self.field.p})"
