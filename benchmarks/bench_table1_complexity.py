"""Table I — operation complexities of IBBE-SGX vs classic IBBE.

The paper's table:

=====================  ==============  ==========
Operation               IBBE-SGX        IBBE
=====================  ==============  ==========
System setup            O(|p|)          O(|S|)
Extract user key        O(1)            O(1)
Create group key        |P|·O(|p|)      O(|S|²)
Add user to group       O(1)            —
Remove user from group  |P|·O(1)        —
Decrypt group key       O(|p|²)         O(|S|²)
=====================  ==============  ==========

This benchmark *verifies the complexity classes empirically*: it sweeps
the governing parameter of each operation, fits a power law, and asserts
the fitted exponent.  Constant-time operations are asserted by bounded
variation instead of a fit.  O(n²) entries whose quadratic term only
dominates beyond pure-Python scales (create-pk, decrypt) are verified on
their quadratic kernel, which the Fig. 2/8 benches measure in isolation.
"""

from __future__ import annotations

import pytest

from repro import ibbe
from repro.bench import fit_power_law, time_call
from repro.crypto.rng import DeterministicRng

from conftest import scaled


@pytest.fixture(scope="module")
def toy_setup(toy_group):
    rng = DeterministicRng("table1")
    msk, pk = ibbe.setup(toy_group, m=scaled(512), rng=rng)
    return msk, pk, rng


def _sweep(fn, sizes):
    return [(n, max(time_call(fn, n)[1], 1e-9)) for n in sizes]


def test_setup_linear_in_partition_bound(toy_group, sink, benchmark):
    rng = DeterministicRng("t1-setup")
    points = _sweep(lambda m: ibbe.setup(toy_group, m, rng),
                    [scaled(s) for s in (64, 128, 256, 512)])
    # Setup builds its fixed-base tables before the m exponentiations
    # of h: fit the growth beyond the smallest size, not the constant.
    base_m, base_t = points[0]
    fit = fit_power_law([(m - base_m, t - base_t) for m, t in points[1:]])
    sink.line(f"setup growth beyond m={base_m}: {fit.describe()}  "
              "[claim: O(|p|)]")
    assert 0.8 <= fit.exponent <= 1.25
    benchmark.pedantic(lambda: ibbe.setup(toy_group, scaled(64), rng),
                       rounds=1, iterations=1)


def test_extract_constant(toy_setup, sink, benchmark):
    msk, pk, rng = toy_setup
    times = []
    for i in range(30):
        _, t = time_call(ibbe.extract, msk, pk, f"user{i}")
        times.append(t)
    spread = max(times[5:]) / min(times[5:])
    sink.line(f"extract: spread {spread:.2f}x over 30 ops  [claim: O(1)]")
    assert spread < 12, "extract must not depend on any size parameter"
    benchmark(lambda: ibbe.extract(msk, pk, "bench"))


def test_create_msk_linear_in_members(toy_setup, sink, benchmark):
    msk, pk, rng = toy_setup
    sizes = [scaled(s) for s in (64, 128, 256, 512)]

    def create(n):
        return ibbe.encrypt_msk(msk, pk, [f"u{i}" for i in range(n)], rng)

    points = _sweep(create, sizes)
    fit = fit_power_law(points)
    sink.line(f"create (MSK path): {fit.describe()}  [claim: O(|p|)]")
    assert fit.exponent <= 1.3, "MSK-path encryption must be linear"
    benchmark.pedantic(lambda: create(scaled(64)), rounds=1, iterations=1)


def test_create_pk_quadratic_kernel(toy_group, sink, benchmark):
    """The classic-IBBE O(|S|²) term (eq. 4's polynomial expansion)."""
    from repro.mathutils.poly import monic_linear_product
    q = toy_group.q
    points = _sweep(
        lambda n: monic_linear_product(list(range(3, n + 3)), q),
        [512, 1024, 2048, 4096],
    )
    fit = fit_power_law(points)
    sink.line(f"create (PK path) kernel: {fit.describe()}  [claim: O(|S|²)]")
    assert fit.exponent > 1.7
    benchmark.pedantic(
        lambda: monic_linear_product(list(range(3, 515)), q),
        rounds=1, iterations=1,
    )


def test_add_constant(toy_setup, sink, benchmark):
    msk, pk, rng = toy_setup
    times = []
    for n in (scaled(s) for s in (16, 64, 256)):
        members = [f"u{i}" for i in range(n)]
        _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
        _, t = time_call(ibbe.add_user_msk, msk, pk, ct, "newcomer")
        times.append((n, t))
    spread = max(t for _, t in times) / min(t for _, t in times)
    sink.line(f"add: spread {spread:.2f}x across set sizes  [claim: O(1)]")
    assert spread < 5, "add must not depend on the set size"
    members = [f"u{i}" for i in range(scaled(16))]
    _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
    benchmark(lambda: ibbe.add_user_msk(msk, pk, ct, "bench"))


def test_remove_constant_per_partition(toy_setup, sink, benchmark):
    """Per-partition removal is O(1) in the partition size; the full group
    operation is |P|·O(1) (asserted on the system level by Fig. 9)."""
    msk, pk, rng = toy_setup
    times = []
    for n in (scaled(s) for s in (16, 64, 256)):
        members = [f"u{i}" for i in range(n)]
        _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
        _, t = time_call(ibbe.remove_user_msk, msk, pk, ct, members[0], rng)
        times.append((n, t))
    spread = max(t for _, t in times) / min(t for _, t in times)
    sink.line(f"remove (per partition): spread {spread:.2f}x  [claim: O(1)]")
    assert spread < 5
    members = [f"u{i}" for i in range(scaled(16))]
    _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
    benchmark.pedantic(
        lambda: ibbe.remove_user_msk(msk, pk, ct, members[0], rng),
        rounds=1, iterations=1,
    )


def test_rekey_constant(toy_setup, sink, benchmark):
    msk, pk, rng = toy_setup
    times = []
    for n in (scaled(s) for s in (16, 64, 256)):
        members = [f"u{i}" for i in range(n)]
        _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
        _, t = time_call(ibbe.rekey, pk, ct, rng)
        times.append((n, t))
    spread = max(t for _, t in times) / min(t for _, t in times)
    sink.line(f"rekey: spread {spread:.2f}x  [claim: O(1)]")
    assert spread < 5


def test_decrypt_scaling(toy_setup, sink, benchmark):
    """Decrypt = one product pairing + O(|p|) multi-exp + O(|p|²) expansion; the
    measured totals must be superlinear-convex, and the kernel quadratic
    (kernel asserted by test_create_pk_quadratic_kernel on the same code
    path — monic_linear_product)."""
    msk, pk, rng = toy_setup
    points = []
    for n in (scaled(s) for s in (32, 128, 512)):
        members = [f"u{i}" for i in range(n)]
        bk, ct = ibbe.encrypt_msk(msk, pk, members, rng)
        usk = ibbe.extract(msk, pk, members[0])
        result, t = time_call(ibbe.decrypt, pk, usk, members, ct)
        assert result == bk
        points.append((n, t))
    marginal = [
        (t2 - t1) / (n2 - n1)
        for (n1, t1), (n2, t2) in zip(points, points[1:])
    ]
    sink.line(f"decrypt: marginal cost per member "
              f"{[f'{m * 1e6:.1f}µs' for m in marginal]}  [claim: O(|p|²)]")
    assert points[-1][1] > points[0][1]
    assert marginal[-1] > marginal[0], "decrypt marginal cost must grow"
