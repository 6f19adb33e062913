"""Differential tests for the scalar-multiplication engine of ``repro.ec``.

The LSB-first binary ladder the engine replaced lives on here as the
oracle: a naive *affine* double-and-add that shares no code with the
Jacobian doubling, mixed addition, batch normalisation, digit recoder or
tables under test.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import P256, Curve, FixedBaseWnaf, Point, wnaf_digits
from repro.ec import curve as curve_module
from repro.ec.wnaf import TABLE_WIDTH, WNAF_WIDTH, table_rows
from repro.errors import CurveError
from repro.pairing import PairingGroup
from repro.pairing.group import G1Element, GTElement
from repro.pairing.params import preset


# -- the oracle ---------------------------------------------------------------

def ref_add(curve, P, Q):
    """Affine chord-and-tangent addition; ``None`` is infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    p = curve.p
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return (x3, (slope * (x1 - x3) - y1) % p)


def ref_mul(curve, k, P):
    """LSB-first binary double-and-add."""
    if k < 0:
        k, P = -k, P and (P[0], -P[1] % curve.p)
    result, addend = None, P
    while k:
        if k & 1:
            result = ref_add(curve, result, addend)
        addend = ref_add(curve, addend, addend)
        k >>= 1
    return result


def xy(point):
    return None if point.is_infinity() else (point.x, point.y)


def ref_sum(curve, terms):
    total = None
    for k, point in terms:
        total = ref_add(curve, total, ref_mul(curve, k, xy(point)))
    return total


# -- curves and strategies ------------------------------------------------------

TOY = PairingGroup(preset("toy64")).curve
CURVES = {"P-256": P256, "toy64": TOY}


def edge_scalars(order):
    edges = {0, 1, 2, order - 1, order, order + 1, -1, -order, 2 * order + 3}
    for j in range(1, order.bit_length() + 2):
        edges.update((2 ** j - 1, 2 ** j, 2 ** j + 1))
    return sorted(edges)


def scalars(order):
    return st.one_of(st.integers(-3 * order, 3 * order),
                     st.sampled_from(edge_scalars(order)))


def bases(curve):
    """A few generator multiples, their negatives and infinity — drawn
    with repetition, so sums meet ``P + P`` and ``P + (−P)``."""
    g = curve.generator
    pool = [g, g * 2, g * 0xC0FFEE, g * (curve.order - 5)]
    return st.sampled_from(pool + [-pt for pt in pool] + [curve.infinity()])


# -- Point.__mul__ ----------------------------------------------------------------

@pytest.mark.parametrize("name", CURVES)
def test_mul_edge_scalars(name):
    curve = CURVES[name]
    base = curve.generator * 3
    for k in edge_scalars(curve.order):
        assert xy(base * k) == ref_mul(curve, k, xy(base)), k


@pytest.mark.parametrize("name", CURVES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_mul_matches_oracle(name, data):
    curve = CURVES[name]
    k = data.draw(scalars(curve.order))
    base = data.draw(bases(curve))
    assert xy(base * k) == ref_mul(curve, k, xy(base))
    assert k * base == base * k


def test_mul_sampled_std160():
    curve = PairingGroup(preset("std160")).curve
    base = curve.generator
    for k in (1, 0xDEADBEEF, curve.order // 3, curve.order - 1,
              curve.cofactor):
        assert xy(base * k) == ref_mul(curve, k, xy(base))
        assert xy(curve.mul_generator(k)) == ref_mul(
            curve, k % curve.order, xy(base))


def test_exhaustive_small_scalars_toy64():
    """Every ``k`` in ``[0, 2^10]`` against a running sum, through the
    ladder, the table and a sum whose columns add an entry to itself
    (the doubling branch), then to its negative (the infinity branch)."""
    base = TOY.generator * 7
    table = FixedBaseWnaf(TOY, base, bits=TOY.order.bit_length())
    expected = None
    for k in range(2 ** 10 + 1):
        assert xy(base * k) == expected
        assert xy(table.mul(k)) == expected
        assert xy(TOY.multi_mul([(k, base), (k, base), (k, -base),
                                 (k, -base), (k, base)])) == expected
        expected = ref_add(TOY, expected, xy(base))


@pytest.mark.parametrize("p", [23, 43, 59])
def test_every_point_of_a_tiny_curve(p):
    """``y² = x³ + x`` over a tiny field: every point has small order, so
    table entries collide with each other, with the accumulator and with
    its negative — each exceptional branch of the mixed addition and of
    batch normalisation (entries at infinity) runs."""
    curve = Curve(p=p, a=1, b=0)
    points = [curve.infinity()] + [
        Point(curve, x, y) for x in range(p) for y in range(p)
        if curve.contains(x, y)
    ]
    assert len(points) == p + 1     # supersingular: #E = p + 1
    for point in points:
        table = FixedBaseWnaf(curve, point, bits=8)
        for k in range(-40, 41):
            expected = ref_mul(curve, k, xy(point))
            assert xy(point * k) == expected
            assert xy(table.mul(k)) == expected
    for left in points[:12]:
        for right in points:
            assert xy(left + right) == ref_add(curve, xy(left), xy(right))
            assert xy(curve.multi_mul([(5, left), (-9, right)])) == ref_sum(
                curve, [(5, left), (-9, right)])


# -- Curve.multi_mul ----------------------------------------------------------------

@pytest.mark.parametrize("name,examples", [("P-256", 8), ("toy64", 30)])
def test_multi_mul_matches_oracle(name, examples):
    curve = CURVES[name]

    @given(st.lists(st.tuples(scalars(curve.order), bases(curve)),
                    min_size=1, max_size=70))
    @settings(max_examples=examples, deadline=None)
    def run(terms):
        assert xy(curve.multi_mul(terms)) == ref_sum(curve, terms)

    run()


@pytest.mark.parametrize("name", CURVES)
def test_multi_mul_seventy_terms(name):
    curve = CURVES[name]
    g = curve.generator
    terms = [((-1) ** i * (curve.order // (i + 1) + i), g * (i % 9))
             for i in range(70)]
    assert xy(curve.multi_mul(terms)) == ref_sum(curve, terms)


def test_multi_mul_accepts_a_generator_and_nothing():
    g = TOY.generator
    assert TOY.multi_mul((k, g) for k in (1, 2, 3)) == g * 6
    assert TOY.multi_mul([]).is_infinity()
    assert TOY.multi_mul([(0, g), (5, TOY.infinity())]).is_infinity()


def test_multi_mul_sampled_std160():
    group = PairingGroup(preset("std160"))
    curve = group.curve
    terms = [(group.hash_to_scalar(f"k{i}"), curve.generator * (i + 2))
             for i in range(6)]
    assert xy(curve.multi_mul(terms)) == ref_sum(curve, terms)


def pool_tables(curve):
    """A table for every base the :func:`bases` strategy can draw."""
    g = curve.generator
    bits = curve.order.bit_length()
    return {point: FixedBaseWnaf(curve, point, bits=bits)
            for point in {sign * (g * k) for sign in (1, -1)
                          for k in (1, 2, 0xC0FFEE, curve.order - 5)}
            | {curve.infinity()}}


@pytest.mark.parametrize("name,examples", [("P-256", 8), ("toy64", 40)])
def test_multi_mul_mixes_tabled_and_plain_terms(name, examples):
    """Any mix of tabled and plain bases — zero and negative scalars,
    infinity under either form — is the naive sum."""
    curve = CURVES[name]
    tables = pool_tables(curve)

    @given(st.lists(st.tuples(scalars(curve.order), bases(curve),
                              st.booleans()), max_size=12))
    @settings(max_examples=examples, deadline=None)
    def run(terms):
        mixed = [(k, tables[base] if tabled else base)
                 for k, base, tabled in terms]
        assert xy(curve.multi_mul(mixed)) == ref_sum(
            curve, [(k, base) for k, base, _ in terms])

    run()


@pytest.mark.parametrize("name", CURVES)
def test_multi_mul_rejects_a_scalar_beyond_a_table(name):
    """One bit past what the rows hold is an error for the whole sum,
    whatever else it contains; the last scalar that fits still works."""
    curve = CURVES[name]
    g = curve.generator
    table = curve.generator_table()
    beyond = 1 << (table.width * len(table.rows))
    for sign in (1, -1):
        with pytest.raises(CurveError, match="exceeds the fixed-base table"):
            curve.multi_mul([(5, g), (sign * beyond, table)])
        with pytest.raises(CurveError):
            table.mul(sign * beyond)
    fits = beyond // 2
    assert xy(curve.multi_mul([(5, g), (fits, table)])) == ref_mul(
        curve, 5 + fits, xy(g))


def test_multi_mul_of_tables_only_and_the_one_term_case():
    table = TOY.generator_table()
    g = TOY.generator
    assert TOY.multi_mul([(3, table), (-3, table)]).is_infinity()
    assert TOY.multi_mul([(0, table)]).is_infinity()
    assert TOY.multi_mul([(7, table), (11, table)]) == g * 18
    assert table.mul(18) == TOY.mul_generator(18) == g * 18


# -- the column tree: many plain terms ---------------------------------------------

STD = PairingGroup(preset("std160")).curve
TREE_CURVES = {**CURVES, "std160": STD}


def tree_pool(curve):
    """Generator multiples, their negatives, infinity and — on the
    type-A curves — the 2-torsion point ``(0, 0)``, whose doubling has
    ``y = 0``."""
    g = curve.generator
    pool = [g * k for k in (1, 2, 3, 0xC0FFEE, curve.order - 5)]
    pool += [-pt for pt in pool] + [curve.infinity()]
    return pool + ([] if curve is P256 else [curve.point(0, 0)])


@functools.lru_cache(maxsize=None)
def table_of(base):
    """``base``'s table, for the tabled side of a mix."""
    return FixedBaseWnaf(base.curve, base, bits=base.curve.order.bit_length())


def tree_scalars(order):
    return st.one_of(st.integers(-order, order), st.sampled_from(
        [0, 1, -1, order - 1, order, -order, -(order - 1), -5]))


@pytest.mark.parametrize("name,examples",
                         [("toy64", 20), ("P-256", 3), ("std160", 3)])
def test_column_tree_matches_oracle(name, examples):
    """4–80 plain terms, alone or beside tabled ones, drawn with
    repetition from a small pool: repeated bases, ``P`` beside ``−P``,
    the identity and edge scalars all meet inside one column."""
    curve = TREE_CURVES[name]
    pool = tree_pool(curve)

    @given(st.lists(st.tuples(tree_scalars(curve.order),
                              st.sampled_from(pool)),
                    min_size=4, max_size=80),
           st.lists(st.tuples(tree_scalars(curve.order),
                              st.sampled_from(pool)), max_size=6))
    @settings(max_examples=examples, deadline=None)
    def run(plain, tabled):
        assert xy(curve.multi_mul(plain)) == ref_sum(curve, plain)
        mixed = plain + [(k, table_of(base)) for k, base in tabled]
        assert xy(curve.multi_mul(mixed)) == ref_sum(curve, plain + tabled)

    run()


@pytest.mark.parametrize("name", TREE_CURVES)
def test_column_tree_edge_sums(name):
    """Sums wide enough for the tree (at least 12 bases): every edge
    scalar on every pool base; a base repeated 16 times (equal points
    in every column: the tree's doubling); 8 pairs ``P``, ``−P`` (every
    column cancels); the identity alone; 2-torsion bases."""
    curve = TREE_CURVES[name]
    pool = tree_pool(curve)
    order = curve.order
    g = curve.generator
    edges = [(k, base) for k in (0, 1, -1, order - 1, order, -7)
             for base in pool]
    cases = [
        edges,
        [(0xBEEF, g * 3)] * 16,
        [(k, sign * (g * (k % 5 + 1))) for k in range(3, 11)
         for sign in (1, -1)],
        [(k, curve.infinity()) for k in range(1, 20)],
        [(k + 1, pool[-1]) for k in range(14)] + [(order - 1, g)] * 12,
    ]
    for terms in cases:
        assert xy(curve.multi_mul(terms)) == ref_sum(curve, terms)
        half = len(terms) // 2
        mixed = terms[:half] + [(k, table_of(base))
                                for k, base in terms[half:]]
        assert xy(curve.multi_mul(mixed)) == ref_sum(curve, terms)
    assert xy(curve.multi_mul([(k, g * 5) for k in range(-6, 7)])) is None


def kernel_counts(monkeypatch):
    """Count doublings, mixed additions and modular inversions."""
    counts = {"_double": 0, "_add_affine": 0, "modinv": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    for name in ("_double", "_add_affine"):
        monkeypatch.setattr(Curve, name, counted(name, getattr(Curve, name)))
    monkeypatch.setattr(curve_module, "modinv",
                        counted("modinv", curve_module.modinv))
    return counts


def test_sixty_three_terms_are_summed_by_the_tree(monkeypatch):
    """A cold join's 63-term ``std160`` sum: one doubling and about one
    mixed addition a column in the Horner pass, and an inversion per tree
    level.  One mixed addition a non-zero digit — the columns summed
    without the tree — would make ≈ 2 100."""
    group = PairingGroup(preset("std160"))
    terms = [(group.hash_to_scalar(f"k{i}"), STD.generator * (i + 3))
             for i in range(63)]
    expected = functools.reduce(
        lambda total, term: total + term[1] * term[0], terms, STD.infinity())
    counts = kernel_counts(monkeypatch)
    assert STD.multi_mul(terms) == expected
    assert counts["_add_affine"] <= 200
    assert counts["_double"] <= STD.order.bit_length() + 1
    assert counts["modinv"] <= 16


def test_a_single_base_keeps_its_ladder(monkeypatch):
    """``Point.__mul__`` takes no tree step: the Jacobian chain of odd
    multiples, one normalisation and the ladder.  Its result (``q·P``,
    infinity) needs no second inversion."""
    base = STD.generator * 3
    counts = kernel_counts(monkeypatch)
    assert (base * STD.order).is_infinity()
    assert counts == {"_double": 168, "_add_affine": 36, "modinv": 1}


# -- fixed-base tables ----------------------------------------------------------------

@pytest.mark.parametrize("name", CURVES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_table_matches_oracle(name, data):
    curve = CURVES[name]
    k = data.draw(scalars(curve.order))
    assert xy(curve.mul_generator(k)) == ref_mul(
        curve, k % curve.order, xy(curve.generator))


def test_table_layout_and_range():
    bits = TOY.order.bit_length()
    table = FixedBaseWnaf(TOY, TOY.generator, bits=bits)
    assert len(table.rows) == table_rows(bits) == bits // TABLE_WIDTH + 1
    assert all(len(row) == 2 ** (TABLE_WIDTH - 1) for row in table.rows)
    assert table.rows[1][2] == xy(TOY.generator * (3 * 2 ** TABLE_WIDTH))
    # Any scalar below 2^bits fits, of either sign.
    top = 2 ** bits - 1
    assert xy(table.mul(top)) == ref_mul(TOY, top, xy(TOY.generator))
    assert table.mul(-top) == -table.mul(top)


def test_g1_table_equals_untabled_pow(group):
    plain = group.g1 ** 0xABCDEF
    tabled = G1Element(group, plain.point).enable_precomputation()
    for k in edge_scalars(group.q)[::7] + [group.hash_to_scalar("e")]:
        assert tabled ** k == plain ** k
    assert group.g1_identity().enable_precomputation() ** 5 == \
        group.g1_identity()


def test_gt_table_equals_untabled_pow(group):
    plain = group.pair(group.g1, group.g1 ** 3)
    tabled = GTElement(group, plain.raw).enable_precomputation()
    for k in edge_scalars(group.q)[::7] + [group.hash_to_scalar("e")]:
        assert tabled ** k == plain ** k


# -- primitives ------------------------------------------------------------------------

def test_batch_normalisation_skips_infinity():
    g = P256.generator
    jacobians = [P256._double((g * k)._jac()) for k in (1, 2, 3)]
    mixed = [(1, 1, 0), jacobians[0], (5, 7, 0), jacobians[1], jacobians[2],
             (1, 1, 0)]
    assert P256._normalise(mixed) == [
        None, xy(g * 2), None, xy(g * 4), xy(g * 6), None]
    assert P256._normalise([]) == []
    assert P256._normalise([(1, 1, 0)]) == [None]


@given(st.integers(min_value=0, max_value=2 ** 300))
@settings(max_examples=200, deadline=None)
def test_recoder_both_strides(k):
    naf = wnaf_digits(k)
    assert sum(d << i for i, d in enumerate(naf)) == k
    assert all(d == 0 or (d % 2 and abs(d) < 2 ** (WNAF_WIDTH - 1))
               for d in naf)
    assert all(sum(1 for d in naf[i:i + WNAF_WIDTH] if d) <= 1
               for i in range(len(naf)))
    assert len(naf) <= k.bit_length() + 1
    windows = wnaf_digits(k, TABLE_WIDTH, TABLE_WIDTH)
    assert sum(d << (TABLE_WIDTH * i) for i, d in enumerate(windows)) == k
    assert all(abs(d) <= 2 ** (TABLE_WIDTH - 1) for d in windows)
    assert len(windows) <= table_rows(k.bit_length())
