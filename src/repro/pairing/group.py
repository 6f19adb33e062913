"""High-level bilinear group interface: G1, GT and the pairing map.

The type-A pairing is symmetric: both pairing arguments live in the same
order-``q`` subgroup G1 of ``E(F_p)``; the target group GT is the order-``q``
subgroup of ``F_p²*``.  Scheme code (IBE, IBBE) is written against this
interface, matching the paper's use of PBC.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Tuple

from repro.ec.curve import Curve, FixedBaseWnaf, Point
from repro.ec.wnaf import HITS as _precomp_hits
from repro.ec.wnaf import MISSES as _precomp_misses
from repro.ec.wnaf import TABLES as _precomp_tables
from repro.ec.wnaf import TABLE_WIDTH, table_rows, wnaf_digits
from repro.errors import PairingError
from repro.obs.spans import span as _span
from repro.fields.fp2 import (
    RawFp2,
    fp2_conj,
    fp2_inv,
    fp2_lucas_pow,
    fp2_mul,
)
from repro.pairing.miller import Lines, miller_lines, pairing_product
from repro.pairing.params import PairingParams


class PairingGroup:
    """A configured bilinear group ``e: G1 × G1 → GT``."""

    def __init__(self, params: PairingParams) -> None:
        self.params = params
        self.q = params.q
        self.p = params.p
        self.curve = Curve(
            p=params.p, a=1, b=0, order=params.q,
            generator=params.generator, cofactor=params.cofactor,
            name=f"type-a/{params.name}",
        )
        self._g = G1Element(self, self.curve.generator)
        self._gt_gen: GTElement | None = None

    # -- group elements -----------------------------------------------------

    @property
    def g1(self) -> "G1Element":
        """The configured generator of G1."""
        return self._g

    def g1_identity(self) -> "G1Element":
        return G1Element(self, self.curve.infinity())

    def gt_identity(self) -> "GTElement":
        return GTElement(self, (1, 0))

    def gt_generator(self) -> "GTElement":
        """``e(g, g)`` (cached)."""
        if self._gt_gen is None:
            self._gt_gen = self.pair(self._g, self._g)
        return self._gt_gen

    def random_scalar(self, rng) -> int:
        """Uniform non-zero exponent in Z_q*."""
        return 1 + rng.randint_below(self.q - 1)

    def hash_to_scalar(self, data: bytes | str,
                       domain: bytes = b"repro:h2s") -> int:
        """Hash arbitrary data (e.g. a user identity) into Z_q*.

        This is the hash ``H`` of the paper's Appendix A mapping identity
        strings to values in Z_p* (our notation: Z_q*).
        """
        if isinstance(data, str):
            data = data.encode("utf-8")
        counter = 0
        while True:
            digest = hashlib.sha256(
                domain + counter.to_bytes(4, "big") + data
            ).digest()
            # Widen past q's size to make the modular bias negligible.
            extra = hashlib.sha256(b"w" + digest).digest()
            value = int.from_bytes(digest + extra, "big") % self.q
            if value != 0:
                return value
            counter += 1

    # -- pairing -------------------------------------------------------------

    def pair(self, a: "G1Element", b: "G1Element",
             *more_pairs: "G1Element") -> "GTElement":
        """The symmetric pairing ``ê(a, b) = e(a, φ(b))`` — times
        ``ê(a2, b2) · …`` for every further pair in ``more_pairs``.

        A product shares one Miller loop and one final exponentiation
        between its terms, and each *first* argument contributes only its
        cached line table (:meth:`G1Element.miller_lines`), so callers put
        their long-lived element first (the pairing is symmetric).  First
        arguments must lie in the order-``q`` subgroup; second arguments
        are taken as given.  Pairs with an identity argument drop out.
        """
        elements = (a, b) + more_pairs
        if len(elements) % 2:
            raise PairingError("pairing arguments come in pairs")
        for position, element in enumerate(elements):
            if (element.group is not self
                    and element.group.params != self.params):
                raise PairingError(
                    f"argument {position} from a different group")
        with _span("crypto.pair", curve=self.params.name):
            terms = []
            for first, second in zip(elements[::2], elements[1::2]):
                x, y = second.point.x, second.point.y
                if first.is_identity() or x is None or y is None:
                    continue
                terms.append((first.miller_lines(), x, y))
            if not terms:
                return self.gt_identity()
            return GTElement(self, pairing_product(terms, self.p, self.q))

    def multi_mul_g1(self, pairs: Iterable[Tuple[int, "G1Element"]]) -> "G1Element":
        """``Σ k_i·P_i`` in G1 — the IBBE decrypt multi-exponentiation."""
        point = self.curve.multi_mul(
            (k % self.q, el.point) for k, el in pairs
        )
        return G1Element(self, point)

    def pow_many(self, powers: Sequence[Tuple["G1Element", int]]
                 ) -> List["G1Element"]:
        """``[base ** e for base, e in powers]``, with every tabled base's
        power from one :meth:`~repro.ec.curve.Curve.tabled_sums` batch;
        an untabled base takes its ladder, as ``**`` does."""
        tables = [base._table for base, _ in powers]
        points = iter(self.curve.tabled_sums([
            [(exponent % self.q, table)]
            for (_, exponent), table in zip(powers, tables)
            if table is not None]))
        return [base ** exponent if table is None
                else G1Element(self, next(points))
                for (base, exponent), table in zip(powers, tables)]

    def __repr__(self) -> str:
        return f"PairingGroup({self.params.describe()})"


class G1Element:
    """Element of G1 (written multiplicatively to match the paper)."""

    __slots__ = ("group", "point", "_table", "_lines")

    def __init__(self, group: PairingGroup, point: Point) -> None:
        self.group = group
        self.point = point
        self._table: FixedBaseWnaf | None = None
        self._lines: Lines | None = None

    def __mul__(self, other: "G1Element") -> "G1Element":
        if not isinstance(other, G1Element):
            return NotImplemented
        return G1Element(self.group, self.point + other.point)

    def __truediv__(self, other: "G1Element") -> "G1Element":
        if not isinstance(other, G1Element):
            return NotImplemented
        return G1Element(self.group, self.point - other.point)

    def enable_precomputation(self) -> "G1Element":
        """Build a fixed-base table so subsequent exponentiations of THIS
        element cost ~q_bits/4 mixed additions and no doublings instead
        of a full wNAF ladder (about 4× on the std160 preset, for a table
        that costs about three ladders to build).

        Used for the long-lived elements exponentiated again and again,
        where they are exponentiated: the public key's w, v and h
        (paper Algorithms 1-3) by system setup, the enclave installing a
        master secret and the parallel engine's worker processes; the
        master secret's g by system setup and by the first user-key
        extraction that finds it untabled (``ibbe.extract``)."""
        if self._table is None and not self.point.is_infinity():
            self._table = FixedBaseWnaf(
                self.group.curve, self.point, bits=self.group.q.bit_length(),
            )
        return self

    def miller_lines(self) -> Lines:
        """This element's Miller line table, built on first use and kept
        (about 90 KB at ``std160``), so every later pairing with this
        element as a first argument pays no point arithmetic.

        Building it is also the subgroup test: :class:`PairingError`
        unless the element has order ``q``.  The table determines the
        element, so for a secret element (a user key) it is as secret as
        the key; it never leaves this object.
        """
        if self._lines is None:
            x, y = self.point.x, self.point.y
            if x is None or y is None:
                raise PairingError("the identity has no Miller lines")
            self._lines = miller_lines(x, y, self.group.p, self.group.q)
        return self._lines

    def __pow__(self, exponent: int) -> "G1Element":
        exponent %= self.group.q
        if self._table is not None:
            return G1Element(self.group, self._table.mul(exponent))
        _precomp_misses.add()
        return G1Element(self.group, self.point * exponent)

    def inverse(self) -> "G1Element":
        return G1Element(self.group, -self.point)

    def is_identity(self) -> bool:
        return self.point.is_infinity()

    def encode(self) -> bytes:
        """Compressed encoding used for wire format and footprint metrics."""
        return self.point.encode()

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes) -> "G1Element":
        return cls(group, Point.decode(group.curve, data))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, G1Element) and other.point == self.point

    def __hash__(self) -> int:
        return hash(("G1", self.point))

    def __repr__(self) -> str:
        return f"G1Element({self.point!r})"


class GTElement:
    """Element of GT, the order-q subgroup of F_p²*."""

    __slots__ = ("group", "raw", "_table")

    def __init__(self, group: PairingGroup, raw: RawFp2) -> None:
        self.group = group
        self.raw = raw
        self._table: list[list[RawFp2]] | None = None

    def enable_precomputation(self) -> "GTElement":
        """Fixed-base table for a long-lived GT base, in the row layout
        of :class:`~repro.ec.curve.FixedBaseWnaf`: ``rows[i][j-1]`` is the
        base to the power ``j · 2^(TABLE_WIDTH·i)``.

        Negative digits need cheap inversion, which GT provides:
        elements of the order-q subgroup satisfy ``z^(p+1) = 1``, so the
        inverse is the conjugate.  The table is therefore only valid for
        subgroup members — which the long-lived bases it serves (``v``,
        pairing outputs) always are.
        """
        if self._table is None and self.raw != (1, 0):
            p = self.group.p
            rows = []
            base = self.raw
            for _ in range(table_rows(self.group.q.bit_length())):
                row = [base]
                for _ in range((1 << (TABLE_WIDTH - 1)) - 1):
                    row.append(fp2_mul(row[-1], base, p))
                rows.append(row)
                base = fp2_mul(row[-1], row[-1], p)
            self._table = rows
            _precomp_tables.add()
        return self

    def __mul__(self, other: "GTElement") -> "GTElement":
        if not isinstance(other, GTElement):
            return NotImplemented
        return GTElement(self.group, fp2_mul(self.raw, other.raw, self.group.p))

    def __truediv__(self, other: "GTElement") -> "GTElement":
        if not isinstance(other, GTElement):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "GTElement":
        exponent %= self.group.q
        if self._table is not None:
            _precomp_hits.add()
            p = self.group.p
            acc: RawFp2 = (1, 0)
            digits = wnaf_digits(exponent, TABLE_WIDTH, TABLE_WIDTH)
            for row, digit in zip(self._table, digits):
                if digit:
                    entry = row[abs(digit) - 1]
                    if digit < 0:
                        entry = fp2_conj(entry, p)
                    acc = fp2_mul(acc, entry, p)
            return GTElement(self.group, acc)
        _precomp_misses.add()
        return GTElement(
            self.group, fp2_lucas_pow(self.raw, exponent, self.group.p)
        )

    def inverse(self) -> "GTElement":
        # Elements of GT have order dividing q | p+1, hence z^p = z^{-1}:
        # inversion is conjugation (cheap).  Fall back to true inversion for
        # raw values outside the subgroup (defensive).
        conj = fp2_conj(self.raw, self.group.p)
        if fp2_mul(conj, self.raw, self.group.p) == (1, 0):
            return GTElement(self.group, conj)
        return GTElement(self.group, fp2_inv(self.raw, self.group.p))

    def is_identity(self) -> bool:
        return self.raw == (1, 0)

    def encode(self) -> bytes:
        size = (self.group.p.bit_length() + 7) // 8
        return self.raw[0].to_bytes(size, "big") + self.raw[1].to_bytes(size, "big")

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes) -> "GTElement":
        """Inverse of :meth:`encode`: the canonical encoding (both
        coordinates below ``p``) of a norm-1 element, which every member
        of GT is and which :func:`~repro.fields.fp2.fp2_lucas_pow`
        relies on."""
        size = (group.p.bit_length() + 7) // 8
        if len(data) != 2 * size:
            raise PairingError("malformed GT encoding")
        a = int.from_bytes(data[:size], "big")
        b = int.from_bytes(data[size:], "big")
        if a >= group.p or b >= group.p:
            raise PairingError("non-canonical GT encoding")
        if (a * a + b * b) % group.p != 1:
            raise PairingError("encoded value is not a norm-1 element")
        return cls(group, (a, b))

    def digest(self) -> bytes:
        """SHA-256 of the canonical encoding — the ``sgx_sha(bk)`` of
        Algorithms 1-3, used to key AES when enveloping the group key."""
        return hashlib.sha256(b"repro:gt" + self.encode()).digest()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GTElement) and other.raw == self.raw

    def __hash__(self) -> int:
        return hash(("GT", self.raw))

    def __repr__(self) -> str:
        return f"GTElement({self.raw[0]:#x}, {self.raw[1]:#x})"
