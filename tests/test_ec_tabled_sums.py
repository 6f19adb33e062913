"""The tabled-sum engine, :meth:`repro.ec.curve.Curve.tabled_sums`.

Every result is checked against the variable-base ladder
(``Point.__mul__``), which shares no code with the engine's table
lookups, affine tree or batch inversions.  The equal-``x`` cases — a
doubling and a cancellation inside one sum — must leave the rest of the
batch untouched.  The last test pins how many engine calls one
membership commit makes.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import quickstart_system
from repro.crypto.rng import DeterministicRng
from repro.ec import P256, Curve, FixedBaseWnaf
from repro.pairing import PairingGroup
from repro.pairing.params import preset


@functools.lru_cache(maxsize=None)
def curve(name):
    return P256 if name == "P-256" else PairingGroup(preset(name)).curve


@functools.lru_cache(maxsize=None)
def tables(name):
    """The generator's table and one for another base of the subgroup."""
    c = curve(name)
    other = c.generator * 0xC0FFEE
    return (c.generator_table(),
            FixedBaseWnaf(c, other, bits=c.order.bit_length()))


def table_base(name, table):
    return table.curve.generator if table is tables(name)[0] else \
        curve(name).generator * 0xC0FFEE


def ladder_sum(name, terms):
    total = curve(name).infinity()
    for k, table in terms:
        total = total + table_base(name, table) * k
    return total


def scalars(order):
    return st.one_of(
        st.sampled_from([0, 1, order - 1, order, -1, -(order - 1), -order]),
        st.integers(-order, order))


def batches(name, max_terms):
    order = curve(name).order
    term = st.tuples(scalars(order), st.sampled_from(tables(name)))
    return st.lists(st.lists(term, min_size=1, max_size=max_terms),
                    min_size=1, max_size=20)


@pytest.mark.parametrize("name,examples,max_terms",
                         [("toy64", 40, 3), ("P-256", 8, 2),
                          ("std160", 4, 2)])
def test_engine_matches_the_ladder(name, examples, max_terms):
    """Batches of 1–20 sums of one to ``max_terms`` tabled terms."""
    @given(batches(name, max_terms))
    @settings(max_examples=examples, deadline=None)
    def run(sums):
        assert curve(name).tabled_sums(sums) == [
            ladder_sum(name, terms) for terms in sums]

    run()


@pytest.mark.parametrize("name", ["toy64", "P-256", "std160"])
def test_edge_scalars_one_sum_each(name):
    c = curve(name)
    table = tables(name)[0]
    edges = [0, 1, c.order - 1, c.order, -1, -c.order, 2 ** 40 + 3]
    assert c.tabled_sums([[(k, table)] for k in edges]) == [
        c.generator * k for k in edges]
    assert c.tabled_sums([]) == []


@pytest.mark.parametrize("name", ["toy64", "P-256"])
def test_two_table_sums_are_the_verify_shape(name):
    """``u1·G + u2·Q`` over two tables, as a pinned-key ECDSA verify
    evaluates it, through both the engine and ``multi_mul``."""
    c = curve(name)
    g_table, q_table = tables(name)
    pairs = [(c.order - 3, 12345), (7, c.order // 3), (0, 5), (9, 0)]
    expected = [ladder_sum(name, [(u1, g_table), (u2, q_table)])
                for u1, u2 in pairs]
    assert c.tabled_sums([[(u1, g_table), (u2, q_table)]
                          for u1, u2 in pairs]) == expected
    assert [c.multi_mul([(u1, g_table), (u2, q_table)])
            for u1, u2 in pairs] == expected


def test_equal_x_falls_back_for_that_sum_only():
    """A doubling, a cancellation (at the first level and at a later
    one) and the 2-torsion point ``(0, 0)`` ride in one batch with
    ordinary sums; every result is still the ladder's."""
    name = "toy64"
    c = curve(name)
    g_table, q_table = tables(name)
    torsion = c.point(0, 0)          # y² = x³ + x: (0, 0) has order 2
    t_table = FixedBaseWnaf(c, torsion, bits=c.order.bit_length())
    k = 0x1111_1111                  # eight equal digits: ties at level 3
    sums = [
        [(1, g_table), (1, g_table)],          # P + P: a doubling
        [(5, g_table), (-5, g_table)],         # P + (−P): a cancellation
        [(k, g_table), (k, g_table)],          # equal partial sums later
        [(k, q_table), (-k, q_table)],
        [(1, t_table), (1, t_table)],          # T + T = O
        [(3, t_table), (2, t_table), (1, t_table)],
        [(1, g_table), (1, g_table), (k, q_table)],   # a tie among many
        [(k, g_table), (3, q_table)],          # ordinary neighbours
        [(c.order - 1, q_table)],
    ]
    expected = [
        c.generator * 2, c.infinity(), c.generator * (2 * k), c.infinity(),
        c.infinity(), c.infinity(), *map(functools.partial(ladder_sum, name),
                                         sums[6:]),
    ]
    assert c.tabled_sums(sums) == expected
    # Alone, each sum is what it was in the batch.
    assert [c.tabled_sums([terms])[0] for terms in sums] == expected


def test_remove_is_one_batch_of_terms_and_one_of_nonces(monkeypatch):
    """A removal from 256 members at capacity 32 (8 partitions): its 17
    G1 terms — the hosting partition's ``C1``, ``C2``, ``C3`` and the
    other seven's ``C1``, ``C2`` — are one engine call, and the 9
    signature nonces of its commit (descriptor + 8 records) another."""
    system = quickstart_system(
        partition_capacity=32, params="toy64",
        rng=DeterministicRng(b"one commit, one batch"))
    try:
        system.admin.create_group("g", [f"u{i}" for i in range(256)])
        calls = []
        real = Curve.tabled_sums

        def counted(self, sums):
            sums = [list(terms) for terms in sums]
            calls.append((self is P256, [len(terms) for terms in sums]))
            return real(self, sums)

        monkeypatch.setattr(Curve, "tabled_sums", counted)
        system.admin.remove_user("g", "u100")
        assert calls == [(False, [1] * 17), (True, [1] * 9)]
    finally:
        system.close()
