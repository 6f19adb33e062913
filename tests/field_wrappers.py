"""Prime field F_p and its quadratic extension F_p², as objects.

Operator-overloaded wrappers over Python integers (:class:`Fp`) and over
the raw ``(a, b)`` tuples of :mod:`repro.fields.fp2` (:class:`Fp2`), for
the field-axiom tests.  The library itself works on raw integers and
tuples only, so the wrappers live beside the tests that use them.
"""

from __future__ import annotations

from typing import Union

from repro.errors import MathError, ParameterError
from repro.fields.fp2 import (
    RawFp2,
    fp2_conj,
    fp2_inv,
    fp2_mul,
    fp2_pow,
)
from repro.mathutils.modular import jacobi_symbol, modinv, modsqrt

IntoFp = Union["FpElement", int]


def fp2_add(x: RawFp2, y: RawFp2, p: int) -> RawFp2:
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def fp2_sub(x: RawFp2, y: RawFp2, p: int) -> RawFp2:
    return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)


def fp2_neg(x: RawFp2, p: int) -> RawFp2:
    return ((-x[0]) % p, (-x[1]) % p)


class Fp:
    """The prime field of order ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if p < 2:
            raise ParameterError(f"field order must be >= 2, got {p}")
        self.p = p

    def __call__(self, value: IntoFp) -> "FpElement":
        if isinstance(value, FpElement):
            if value.field.p != self.p:
                raise MathError("element belongs to a different field")
            return value
        return FpElement(self, value % self.p)

    def zero(self) -> "FpElement":
        return FpElement(self, 0)

    def one(self) -> "FpElement":
        return FpElement(self, 1)

    def random(self, rng) -> "FpElement":
        return FpElement(self, rng.randint_below(self.p))

    def random_nonzero(self, rng) -> "FpElement":
        return FpElement(self, 1 + rng.randint_below(self.p - 1))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"Fp({self.p})"


class FpElement:
    """An element of F_p supporting full field arithmetic."""

    __slots__ = ("field", "value")

    def __init__(self, field: Fp, value: int) -> None:
        self.field = field
        self.value = value % field.p

    def _coerce(self, other: IntoFp) -> "FpElement":
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise MathError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return FpElement(self.field, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: IntoFp) -> "FpElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other: IntoFp) -> "FpElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.value - o.value)

    def __rsub__(self, other: IntoFp) -> "FpElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.field, o.value - self.value)

    def __mul__(self, other: IntoFp) -> "FpElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.value * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other: IntoFp) -> "FpElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: IntoFp) -> "FpElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self) -> "FpElement":
        return FpElement(self.field, -self.value)

    def __pow__(self, exponent: int) -> "FpElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FpElement(self.field, pow(self.value, exponent, self.field.p))

    def inverse(self) -> "FpElement":
        return FpElement(self.field, modinv(self.value, self.field.p))

    def sqrt(self) -> "FpElement":
        """A square root (raises MathError for non-residues)."""
        return FpElement(self.field, modsqrt(self.value, self.field.p))

    def is_square(self) -> bool:
        if self.value == 0:
            return True
        return jacobi_symbol(self.value, self.field.p) == 1

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (
            isinstance(other, FpElement)
            and other.field.p == self.field.p
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"FpElement({self.value} mod {self.field.p})"


# ---------------------------------------------------------------------------
# F_p² wrapper
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
