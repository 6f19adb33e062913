"""Short-Weierstrass elliptic curves ``y² = x³ + a·x + b`` over F_p.

The public interface is affine (:class:`Point`), while scalar multiplication
runs on Jacobian coordinates internally to avoid a modular inversion per
group operation.  This module serves both the NIST P-256 curve (baselines,
signatures) and the supersingular pairing curve ``y² = x³ + x``.

Scalar multiplication rests on one affine tree, :meth:`Curve._tree`:
it adds many lists of affine points pairwise, level by level
(``λ = Δy / Δx``), every list of a batch sharing one Montgomery
inversion per level, and leaves a list to Jacobian *mixed* additions
(Jacobian accumulator plus affine operand) where a pair cancels or a
level is too small to pay for its inversion.  Three things run on it.
Tabled sums: :meth:`Curve.tabled_sums` evaluates many sums of
:class:`FixedBaseWnaf` terms (the curve generators, the long-lived IBBE
bases, a pinned ECDSA key) at once — each term's digits select affine
table entries, needing no doublings — and :meth:`FixedBaseWnaf.mul` is
its batch of one.  Straus columns: ``Point.__mul__`` and
:meth:`Curve.multi_mul` are the interleaved width-5 wNAF sum over one or
many bases; each wNAF column's entries are summed by the tree, then one
Horner pass doubles once and adds once a column (a tabled term's entries
join the last column).  Table rows: the odd multiples of many bases, and
a fixed-base table's rows, are built column by column, one tree pass
each.  Montgomery batch normalisation (many Jacobian points to affine
for one inversion) and the digit recoder of :mod:`repro.ec.wnaf` serve
all three.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.ec.wnaf import (
    HITS,
    TABLE_WIDTH,
    TABLES,
    WNAF_WIDTH,
    table_rows,
    wnaf_digits,
)
from repro.errors import CurveError, ParameterError
from repro.mathutils.modular import modinv, modsqrt

Affine = Tuple[int, int]          # a finite point; infinity is ``None``
Jacobian = Tuple[int, int, int]   # (X, Y, Z); point at infinity has Z == 0

#: What a scalar multiplies in :meth:`Curve.multi_mul`.
Base = Union["Point", "FixedBaseWnaf"]

_INFINITY: Jacobian = (1, 1, 0)
#: Odd multiples ``P, 3P, …`` a wNAF ladder keeps per base.
_ODD_MULTIPLES = 1 << (WNAF_WIDTH - 2)
#: Fewest pairs a level of :meth:`Curve._tree` must add to pay for
#: its inversion: one costs about four mixed additions on P-256 and at
#: ``std160``, and an affine addition saves about a third of one.
_TREE_MIN_PAIRS = 12


class Curve:
    """The curve ``y² = x³ + a·x + b`` over ``F_p``.

    ``order`` is the order of the subgroup generated by ``generator`` (for
    prime-order curves such as P-256 this is the curve order); ``cofactor``
    times ``order`` gives the number of rational points.
    """

    __slots__ = ("p", "a", "b", "order", "cofactor", "_generator", "name",
                 "_gen_table", "_a_signed")

    def __init__(self, p: int, a: int, b: int, order: Optional[int] = None,
                 generator: Optional[Tuple[int, int]] = None,
                 cofactor: int = 1, name: str = "curve") -> None:
        if p < 5:
            raise ParameterError("curve requires an odd prime field, p >= 5")
        a %= p
        b %= p
        if (4 * a * a * a + 27 * b * b) % p == 0:
            raise ParameterError("singular curve: 4a³ + 27b² ≡ 0 (mod p)")
        self.p = p
        self.a = a
        self.b = b
        self.order = order
        self.cofactor = cofactor
        self.name = name
        # The representative of ``a`` closest to zero: 1 on the pairing
        # curve, -3 on P-256 — a one-limb factor in every doubling.
        self._a_signed = a if 2 * a < p else a - p
        self._generator: Optional[Point] = None
        self._gen_table: Optional[FixedBaseWnaf] = None
        if generator is not None:
            self._generator = self.point(*generator)

    # -- point construction -------------------------------------------------

    @property
    def generator(self) -> "Point":
        if self._generator is None:
            raise CurveError(f"curve {self.name} has no generator configured")
        return self._generator

    def point(self, x: int, y: int) -> "Point":
        point = Point(self, x % self.p, y % self.p)
        if not point.is_on_curve():
            raise CurveError(f"({x}, {y}) is not on {self.name}")
        return point

    def infinity(self) -> "Point":
        return Point(self, None, None)

    def lift_x(self, x: int, y_parity: int = 0) -> "Point":
        """Return a point with the given x-coordinate (decompression)."""
        x %= self.p
        rhs = (pow(x, 3, self.p) + self.a * x + self.b) % self.p
        y = modsqrt(rhs, self.p)
        if y % 2 != y_parity % 2:
            y = self.p - y
        return Point(self, x, y)

    def contains(self, x: int, y: int) -> bool:
        x %= self.p
        y %= self.p
        return (
            (y * y - (pow(x, 3, self.p) + self.a * x + self.b)) % self.p == 0
        )

    # -- Jacobian primitives -------------------------------------------------

    def _double(self, pt: Jacobian) -> Jacobian:
        X1, Y1, Z1 = pt
        if Z1 == 0 or Y1 == 0:
            return _INFINITY
        p = self.p
        YY = Y1 * Y1 % p
        S = 4 * X1 * YY % p
        ZZ = Z1 * Z1 % p
        M = (3 * X1 * X1 + self._a_signed * ZZ * ZZ) % p
        X3 = (M * M - 2 * S) % p
        Y3 = (M * (S - X3) - 8 * YY * YY) % p
        return (X3, Y3, 2 * Y1 * Z1 % p)

    def _add_affine(self, pt: Jacobian, x2: int, y2: int) -> Jacobian:
        """Mixed addition ``pt + (x2, y2)`` — the operand has ``Z = 1``."""
        X1, Y1, Z1 = pt
        if Z1 == 0:
            return (x2, y2, 1)
        p = self.p
        ZZ = Z1 * Z1 % p
        H = (x2 * ZZ - X1) % p
        r = (y2 * ZZ % p * Z1 - Y1) % p
        if H == 0:
            # Same x: the operand is the accumulator or its negative.
            return self._double(pt) if r == 0 else _INFINITY
        HH = H * H % p
        HHH = H * HH % p
        V = X1 * HH % p
        X3 = (r * r - HHH - 2 * V) % p
        Y3 = (r * (V - X3) - Y1 * HHH) % p
        return (X3, Y3, Z1 * H % p)

    def _inverses(self, values: Sequence[int]) -> List[int]:
        """``[v⁻¹ mod p for v in values]`` (all non-zero) for one modular
        inversion, Montgomery's trick; none for an empty list."""
        p = self.p
        prefixes = list(accumulate(values, lambda a, b: a * b % p, initial=1))
        inverse = modinv(prefixes.pop(), p) if values else 1
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = inverse * prefixes[i] % p
            inverse = inverse * values[i] % p
        return out

    def _normalise(self,
                   points: Sequence[Jacobian]) -> List[Optional[Affine]]:
        """Affine forms of ``points`` for one modular inversion;
        infinity (``Z == 0``) becomes ``None``."""
        p = self.p
        inverses = iter(self._inverses([Z for _, _, Z in points if Z]))
        out: List[Optional[Affine]] = [None] * len(points)
        for i, (X, Y, Z) in enumerate(points):
            if Z:
                zinv = next(inverses)
                zz = zinv * zinv % p
                out[i] = (X * zz % p, Y * zz % p * zinv % p)
        return out

    def _to_affine(self, pt: Jacobian) -> "Point":
        xy = self._normalise([pt])[0]
        return self.infinity() if xy is None else Point(self, *xy)

    def _tree(self, sums: List[List[Affine]]) -> List[List[Affine]]:
        """Shorten every list of affine points to one with the same sum,
        in place: the engine behind tabled sums, Straus columns and
        table rows.

        Each list's points are added pairwise, level by level, in affine
        coordinates (``λ = Δy / Δx``, or ``(3x² + a) / 2y`` for a point
        added to itself), and every list of the batch shares one
        Montgomery inversion per level: six field multiplications an
        addition against a mixed addition's eleven.  A list with a pair
        ``P + (−P)`` (``y = 0`` included) leaves the tree as it stands,
        and every list still open does once a level has fewer than
        ``_TREE_MIN_PAIRS`` pairs to share its inversion; the caller adds
        what is left by mixed additions, which take any operands.
        """
        p, a = self.p, self.a
        active = [i for i, points in enumerate(sums) if len(points) > 1]
        while sum(len(sums[i]) // 2 for i in active) >= _TREE_MIN_PAIRS:
            deltas: List[int] = []
            pairing: List[int] = []
            for i in active:
                points = sums[i]
                level = [(right[0] - left[0]) % p
                         or (2 * left[1] % p if left == right else 0)
                         for left, right in zip(points[::2], points[1::2])]
                if 0 not in level:
                    deltas += level
                    pairing.append(i)
            slopes = iter(self._inverses(deltas))
            for i in pairing:
                points = sums[i]
                added: List[Affine] = []
                for (x1, y1), (x2, y2) in zip(points[::2], points[1::2]):
                    slope = (y2 - y1 if x1 != x2 else 3 * x1 * x1 + a) * \
                        next(slopes) % p
                    x3 = (slope * slope - x1 - x2) % p
                    added.append((x3, (slope * (x1 - x3) - y1) % p))
                if len(points) % 2:
                    added.append(points[-1])
                sums[i] = added
            active = [i for i in pairing if len(sums[i]) > 1]
        return sums

    def _sums(self, sums: List[List[Affine]]) -> List[Optional[Affine]]:
        """``[Σ points for each list]``: the tree, then each list it left
        open by mixed additions, all of those normalised together."""
        open_sums: Dict[int, Jacobian] = {}
        for i, points in enumerate(self._tree(sums)):
            if len(points) > 1:
                acc = _INFINITY
                for x, y in points:
                    acc = self._add_affine(acc, x, y)
                open_sums[i] = acc
        normalised = dict(zip(open_sums,
                              self._normalise(list(open_sums.values()))))
        return [normalised[i] if i in normalised else
                (points[0] if points else None)
                for i, points in enumerate(sums)]

    def _progressions(self, starts: Sequence[Optional[Affine]],
                      steps: Sequence[Optional[Affine]],
                      count: int) -> List[List[Optional[Affine]]]:
        """``[s, s + d, …, s + (count − 1)·d]`` for each ``(s, d)``, one
        :meth:`_sums` pass (so one inversion) a column."""
        rows = [[start] for start in starts]
        for _ in range(count - 1):
            column = self._sums([[pt for pt in (row[-1], step)
                                  if pt is not None]
                                 for row, step in zip(rows, steps)])
            for row, pt in zip(rows, column):
                row.append(pt)
        return rows

    def _wnaf_sum(self, terms: Iterable[Tuple[int, "Point"]],
                  entries: Sequence[Affine] = ()) -> Jacobian:
        """``Σ k_i · P_i + Σ entries`` by interleaved width-5 wNAF
        (Straus).  The result stays Jacobian.

        Each base contributes its odd multiples ``P, 3P, …, 15P``.  Under
        ``_TREE_MIN_PAIRS`` bases they come from a Jacobian chain per
        base, all normalised together; from there on from one batched
        doubling and seven elementwise additions (:meth:`_progressions`),
        an inversion each.  Every wNAF column's entries (one per non-zero
        digit, ≈ bits/6 per term; ``entries`` join the last column) are
        summed by :meth:`_tree`, and one Horner pass follows: a doubling
        and, per point the tree left, a mixed addition per column.
        """
        p = self.p
        bases: List[Affine] = []
        recodings: List[List[int]] = []
        for k, base in terms:
            xy = base._xy()
            if k == 0 or xy is None:
                continue
            recodings.append(wnaf_digits(abs(k)))
            bases.append((xy[0], -xy[1] % p if k < 0 else xy[1]))
        if len(bases) < _TREE_MIN_PAIRS:
            chains: List[Jacobian] = []
            for x, y in bases:
                # m·P for m = 1 … 15: doubling (m/2)·P, or adding P.
                chain: List[Jacobian] = [(x, y, 1)]
                for m in range(2, 2 * _ODD_MULTIPLES):
                    chain.append(self._add_affine(chain[-1], x, y) if m % 2
                                 else self._double(chain[m // 2 - 1]))
                chains += chain[::2]
            table = self._normalise(chains)
            rows = [table[i:i + _ODD_MULTIPLES]
                    for i in range(0, len(table), _ODD_MULTIPLES)]
        else:
            rows = self._progressions(
                bases, self._sums([[xy, xy] for xy in bases]), _ODD_MULTIPLES)
        columns: List[List[Affine]] = [
            [] for _ in range(max(map(len, recodings), default=1))]
        columns[0] += entries
        for row, digits in zip(rows, recodings):
            for position, digit in enumerate(digits):
                entry = row[abs(digit) >> 1] if digit else None
                if entry is not None:
                    x, y = entry
                    columns[position].append((x, -y % p if digit < 0 else y))
        acc = _INFINITY
        for column in reversed(self._tree(columns)):
            acc = self._double(acc)
            for x, y in column:
                acc = self._add_affine(acc, x, y)
        return acc

    def _table_entries(self, k: int, table: "FixedBaseWnaf") -> List[Affine]:
        """The affine table entries whose sum is ``k · B``: one per
        non-zero radix-``2^width`` digit, negated where the digit's sign
        and ``k``'s differ."""
        HITS.add()
        digits = wnaf_digits(abs(k), table.width, table.width)
        if len(digits) > len(table.rows):
            raise CurveError("scalar exceeds the fixed-base table")
        p = self.p
        flip = k < 0
        entries: List[Affine] = []
        for row, digit in zip(table.rows, digits):
            if digit:
                entry = row[abs(digit) - 1]
                if entry is not None:
                    if (digit < 0) != flip:
                        entry = (entry[0], -entry[1] % p)
                    entries.append(entry)
        return entries

    def tabled_sums(self, sums: Sequence[Sequence[Tuple[int, "FixedBaseWnaf"]]]
                    ) -> List["Point"]:
        """``[Σ k_i · B_i for each sum]`` over fixed-base tables, in one
        batch.

        Every term's digits select its affine table entries (one per
        non-zero digit, no doublings), and :meth:`_sums` adds each sum's
        entries in the one affine tree, every sum of the batch sharing
        one batch inversion per level: ≈ log₂(entries) inversions for
        the whole batch.  Every result is the point the ladder gives.
        A scalar beyond its table is a :class:`~repro.errors.CurveError`.
        """
        return [self.infinity() if xy is None else Point(self, *xy)
                for xy in self._sums([
                    [entry for k, table in terms
                     for entry in self._table_entries(k, table)]
                    for terms in sums])]

    # -- scalar multiplication -------------------------------------------------

    def generator_table(self) -> "FixedBaseWnaf":
        """The generator's fixed-base table, built on first use.

        The generator is multiplied on every signature, verification, key
        generation and ECIES encryption, so the one-time table pays for
        itself quickly.
        """
        if self._gen_table is None:
            self._gen_table = FixedBaseWnaf(
                self, self.generator,
                bits=(self.order or self.p).bit_length(),
            )
        return self._gen_table

    def mul_generator(self, k: int) -> "Point":
        """``k·G`` from :meth:`generator_table`."""
        table = self.generator_table()
        return table.mul(k % self.order if self.order is not None else k)

    def multi_mul(self, pairs: Iterable[Tuple[int, Base]]) -> "Point":
        """Compute ``Σ k_i · B_i`` with one final normalisation.

        ``pairs`` is an iterable of ``(scalar, base)``; a base is a
        :class:`Point` (interleaved wNAF, shared doublings) or a
        :class:`FixedBaseWnaf` built for this curve (a scalar beyond the
        table is a :class:`~repro.errors.CurveError`).  The tabled terms'
        entries join the last wNAF column, so every term is summed in
        the one affine tree.  Used by the IBBE decrypt
        multi-exponentiation and by every ECDSA verification.
        """
        plain: List[Tuple[int, Point]] = []
        entries: List[Affine] = []
        for k, base in pairs:
            if isinstance(base, FixedBaseWnaf):
                entries += self._table_entries(k, base)
            else:
                plain.append((k, base))
        return self._to_affine(self._wnaf_sum(plain, entries))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Curve)
            and other.p == self.p
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b))

    def __repr__(self) -> str:
        return f"Curve({self.name}: y² = x³ + {self.a}x + {self.b} over F_{self.p})"


class Point:
    """An affine point on a :class:`Curve` (or the point at infinity)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: Optional[int], y: Optional[int]) -> None:
        self.curve = curve
        self.x = x
        self.y = y

    def is_infinity(self) -> bool:
        return self.x is None

    def _xy(self) -> Optional[Affine]:
        """``(x, y)`` of a finite point, ``None`` for infinity."""
        if self.x is None or self.y is None:
            return None
        return (self.x, self.y)

    def is_on_curve(self) -> bool:
        xy = self._xy()
        return xy is None or self.curve.contains(*xy)

    def _jac(self) -> Jacobian:
        xy = self._xy()
        return _INFINITY if xy is None else (xy[0], xy[1], 1)

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        if other.curve != self.curve:
            raise CurveError("points on different curves")
        xy = other._xy()
        if xy is None:
            return self
        return self.curve._to_affine(self.curve._add_affine(self._jac(), *xy))

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __neg__(self) -> "Point":
        xy = self._xy()
        if xy is None:
            return self
        return Point(self.curve, xy[0], -xy[1] % self.curve.p)

    def __mul__(self, k: int) -> "Point":
        if not isinstance(k, int):
            return NotImplemented
        return self.curve._to_affine(self.curve._wnaf_sum([(k, self)]))

    __rmul__ = __mul__

    def double(self) -> "Point":
        return self.curve._to_affine(self.curve._double(self._jac()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Point)
            and other.curve == self.curve
            and other.x == self.x
            and other.y == self.y
        )

    def __hash__(self) -> int:
        return hash((self.curve.p, self.curve.a, self.curve.b, self.x, self.y))

    def encode(self) -> bytes:
        """Compressed SEC1-style encoding (02/03 prefix + x), 00 for infinity."""
        xy = self._xy()
        if xy is None:
            return b"\x00"
        size = (self.curve.p.bit_length() + 7) // 8
        prefix = b"\x03" if xy[1] % 2 else b"\x02"
        return prefix + xy[0].to_bytes(size, "big")

    @classmethod
    def decode(cls, curve: Curve, data: bytes) -> "Point":
        """Inverse of :meth:`encode`; accepts the canonical encoding only
        (exact length, ``x < p``), so one point has one byte string."""
        if data == b"\x00":
            return curve.infinity()
        size = (curve.p.bit_length() + 7) // 8
        if len(data) != 1 + size or data[0] not in (2, 3):
            raise CurveError("malformed compressed point")
        x = int.from_bytes(data[1:], "big")
        if x >= curve.p:
            raise CurveError("compressed point has x >= p")
        return curve.lift_x(x, y_parity=data[0] - 2)

    def __repr__(self) -> str:
        if self.is_infinity():
            return f"Point(infinity on {self.curve.name})"
        return f"Point({self.x}, {self.y} on {self.curve.name})"


class FixedBaseWnaf:
    """Radix-``2^width`` signed-digit table for one fixed curve point.

    ``rows[i][j-1]`` holds ``j · 2^(width·i) · B`` in affine coordinates
    for ``j = 1 … 2^(width-1)``, so a recoded scalar is evaluated with
    one mixed addition per non-zero digit and *no* doublings; negative
    digits negate the looked-up point, which costs one field
    subtraction.  At ``std160`` that is 41 rows of 8 points: the row
    bases by Jacobian doubling, normalised together, then each row's
    multiples ``2·R, 3·R, …`` as one column of :meth:`Curve._progressions`
    at a time — eight batch inversions for the table.
    """

    __slots__ = ("curve", "width", "rows")

    def __init__(self, curve: Curve, base: Point,
                 bits: int, width: int = TABLE_WIDTH) -> None:
        self.curve = curve
        self.width = width
        per_row = 1 << (width - 1)
        row_base = base._jac()
        row_bases = [row_base]
        for _ in range(table_rows(bits, width) - 1):
            for _ in range(width):
                row_base = curve._double(row_base)
            row_bases.append(row_base)
        # A base of small 2-power order leaves its upper rows empty.
        starts = curve._normalise(row_bases)
        self.rows = curve._progressions(starts, starts, per_row)
        TABLES.add()

    def mul(self, k: int) -> Point:
        """``k · B`` for ``|k| < 2^bits``; a scalar beyond the table is a
        :class:`~repro.errors.CurveError`; the batch of one of
        :meth:`Curve.tabled_sums`."""
        return self.curve.tabled_sums([[(k, self)]])[0]
