"""Figure 8 — add-user latency CDF and client decrypt latency.

Paper's observations:

* 8a: add-user is O(1) for both IBBE-SGX and HE; the IBBE-SGX CDF has a
  knee around 0.8 where the slow path (creating a brand-new partition when
  all are full) takes over; HE adds are roughly 2× faster.  Here both
  paths are one rebuild on tabled bases, so the modes coincide.
* 8b: client decryption grows quadratically with the partition size for
  IBBE-SGX (HE decryption is constant — a single public-key operation).
  Beside the paper's series: a member that already holds a hint follows
  a one-member change by ``ibbe.update_decryption`` — flat in the size.
"""

from __future__ import annotations

import time

import pytest

from repro import ibbe
from repro.baselines import HePkiScheme, HybridGroupManager
from repro.bench import cdf_points, fit_power_law, format_seconds, time_call
from repro.crypto.rng import DeterministicRng

from conftest import (
    footprint_counters,
    footprint_delta,
    make_bench_system,
    scaled,
    traced_breakdown,
)

ADD_COUNT = 60
DECRYPT_SIZES = [32, 64, 128, 256]

# Fixed scale for the operation-pipeline report (not subject to
# REPRO_BENCH_SCALE): a bulk enrollment spanning many partitions.
PIPELINE_JOINERS = 255
PIPELINE_CAPACITY = 16


def test_fig8a_add_user_cdf(sink, benchmark):
    capacity = scaled(8)
    system = make_bench_system("fig8a", capacity, params="std160",
                               auto_repartition=False)
    # Start nearly full so a meaningful fraction of adds takes the
    # new-partition path (the paper's CDF knee at ~0.8).
    initial = [f"seed{i}" for i in range(capacity - 1)]
    system.admin.create_group("g", initial)

    ibbe_latencies = []
    path_taken = []  # "existing" | "new-partition"
    for i in range(scaled(ADD_COUNT)):
        partitions_before = system.admin.group_state("g").table.partition_count
        _, elapsed = time_call(system.admin.add_user, "g", f"new{i}")
        partitions_after = system.admin.group_state("g").table.partition_count
        ibbe_latencies.append(elapsed)
        path_taken.append(
            "new-partition" if partitions_after > partitions_before
            else "existing"
        )

    scheme = HePkiScheme(rng=DeterministicRng("fig8a-he"))
    manager = HybridGroupManager(scheme, rng=DeterministicRng("fig8a-m"))
    for user in initial:
        scheme.register_user(user)
    manager.create_group("g", initial)
    he_latencies = []
    for i in range(scaled(ADD_COUNT)):
        scheme.register_user(f"new{i}")
        _, elapsed = time_call(manager.add_user, "g", f"new{i}")
        he_latencies.append(elapsed)

    rows = []
    for name, samples in (("IBBE-SGX", ibbe_latencies), ("HE", he_latencies)):
        for value, fraction in cdf_points(samples, steps=10):
            rows.append([name, f"{fraction:.1f}", format_seconds(value)])
    sink.table("Fig 8a: add-user latency CDF",
               ["scheme", "CDF", "latency"], rows)

    # Two-path structure: adds that created a new partition versus adds
    # to an existing one.  The paper's slower mode is the new partition
    # (a full IBBE encrypt beside an O(1) ciphertext extension).  Here
    # both paths are one rebuild on tabled bases — three G1 powers, one
    # GT power, one unseal — and differ only in how many member hashes
    # the rebuild folds, so the two modes coincide and the CDF has no
    # knee (see EXPERIMENTS.md).
    existing = [t for t, path in zip(ibbe_latencies, path_taken)
                if path == "existing"]
    fresh = [t for t, path in zip(ibbe_latencies, path_taken)
             if path == "new-partition"]
    assert existing and fresh, "both Fig 8a paths must occur in the workload"
    existing_mean = sum(existing) / len(existing)
    fresh_mean = sum(fresh) / len(fresh)
    ratio = existing_mean / fresh_mean
    sink.line(f"  existing-partition path: {format_seconds(existing_mean)} "
              f"mean ({len(existing)} ops); new-partition path: "
              f"{format_seconds(fresh_mean)} mean ({len(fresh)} ops)")
    sink.line(f"  existing / new = {ratio:.2f}: the two modes coincide "
              "(paper: knee ~0.8, the new partition the slower mode)")
    assert 0.75 < ratio < 1.33, (
        "both add paths are one rebuild on tabled bases and should cost "
        "about the same"
    )

    mean_ibbe = sum(ibbe_latencies) / len(ibbe_latencies)
    mean_he = sum(he_latencies) / len(he_latencies)
    sink.line(f"  mean add: IBBE-SGX {format_seconds(mean_ibbe)}, "
              f"HE {format_seconds(mean_he)}, IBBE-SGX / HE = "
              f"{mean_ibbe / mean_he:.2f} (paper: HE ~2x faster)")
    assert mean_he < mean_ibbe, "HE adds should be faster (paper Fig 8a)"

    benchmark.pedantic(lambda: system.admin.add_user("g", "bench-user"),
                       rounds=1, iterations=1)


def test_fig8b_decrypt_latency(std_group, sink, benchmark):
    rng = DeterministicRng("fig8b")
    sizes = [scaled(s) for s in DECRYPT_SIZES]
    msk, pk = ibbe.setup(std_group, max(sizes), rng)

    points = []
    for size in sizes:
        members = [f"u{i}" for i in range(size)]
        bk, ct = ibbe.encrypt_msk(msk, pk, members, rng)
        usk = ibbe.extract(msk, pk, members[size // 2])
        # Min of three runs against scheduler noise.
        samples = []
        for _ in range(3):
            result, elapsed = time_call(ibbe.decrypt, pk, usk, members, ct)
            assert result == bk
            samples.append(elapsed)
        points.append((size, min(samples)))

    # The same member, warm: it holds the hint and (one earlier change
    # built it) the witness for `members` less one, and somebody joins.
    warm_points = []
    for size in sizes:
        members = [f"u{i}" for i in range(size)]
        me = members[size // 2]
        usk = ibbe.extract(msk, pk, me)
        _, full = ibbe.encrypt_msk(msk, pk, members, rng)
        _, before = ibbe.encrypt_msk(msk, pk, members[:-1], rng)
        warm = ibbe.update_decryption(
            pk, ibbe.prepare_decryption(pk, usk, members), members[:-1],
            full.c3.encode(), before.c3.encode())
        joined = members[:-1] + ["joiner"]
        bk, ct = ibbe.encrypt_msk(msk, pk, joined, rng)

        def follow():
            hint = ibbe.update_decryption(pk, warm, joined,
                                          before.c3.encode(),
                                          ct.c3.encode())
            return ibbe.decrypt_with_hint(pk, usk, hint, ct)

        samples = []
        for _ in range(3):
            result, elapsed = time_call(follow)
            assert result == bk
            samples.append(elapsed)
        warm_points.append((size, min(samples)))

    # HE decryption for contrast: one ECIES decryption, constant.
    from repro.crypto import ecies
    key = ecies.generate_keypair(rng)
    ct_he = key.public_key().encrypt(bytes(32), rng)
    _, he_elapsed = time_call(key.decrypt, ct_he)

    rows = [[n, format_seconds(t), format_seconds(w)]
            for (n, t), (_, w) in zip(points, warm_points)]
    rows.append(["HE (any size)", format_seconds(he_elapsed), "-"])
    sink.table("Fig 8b: client decrypt latency per partition size",
               ["partition size", "latency (cold: the paper's series)",
                "warm member, one-member change"], rows)
    warm_times = [w for _, w in warm_points]
    assert max(warm_times) < 1.5 * min(warm_times), (
        "a hint update must not depend on the partition size")
    assert all(w < t for (_, t), w in zip(points, warm_times))

    # Decrypt cost decomposes as c_pair + a·n + b·n²: one two-term
    # product pairing plus its two line tables and the C1 order test
    # (constant), the multi-exponentiation over h^(γ^t) (linear), and the
    # p_i(γ) polynomial expansion (quadratic).  At pure-Python-feasible
    # sizes the constant and linear terms still dominate (the quadratic
    # term is ~6 of ~195 ms at n = 256), so instead of a naive power-law
    # fit of the totals we measure the quadratic kernel in isolation and
    # report, without asserting on them, the totals' marginal costs.
    from repro.mathutils.poly import monic_linear_product
    kernel_points = []
    for n in (512, 1024, 2048):
        roots = list(range(3, 3 + n))
        _, elapsed = time_call(monic_linear_product, roots, std_group.q)
        kernel_points.append((n, elapsed))
    kernel_fit = fit_power_law(kernel_points)
    sink.line(f"  quadratic kernel fit: {kernel_fit.describe()}")
    assert kernel_fit.exponent > 1.7, "decrypt kernel must be quadratic"

    linear_part = points[0][1] / points[0][0]
    projected_4000 = (
        kernel_fit.predict(4000) + linear_part * 4000
    )
    sink.line(f"  projected decrypt @4000: "
              f"{format_seconds(projected_4000)} (paper: ~2 s)")

    for (n1, t1), (n2, t2) in zip(points, points[1:]):
        assert t2 > t1, "decrypt latency must increase with partition size"
    marginal = ", ".join(
        f"{n1}-{n2}: {format_seconds((t2 - t1) / (n2 - n1))}"
        for (n1, t1), (n2, t2) in zip(points, points[1:])
    )
    sink.line(f"  marginal cost per member: {marginal}")
    assert he_elapsed < points[0][1], "HE decrypt must be cheaper (Fig 8b)"

    members = [f"u{i}" for i in range(scaled(32))]
    bk, ct = ibbe.encrypt_msk(msk, pk, members, rng)
    usk = ibbe.extract(msk, pk, members[0])
    benchmark.pedantic(lambda: ibbe.decrypt(pk, usk, members, ct),
                       rounds=1, iterations=1)


def test_fig8c_batch_add_boundary_footprint(sink, benchmark):
    """Operation-pipeline report: enrolling a whole roster via
    ``add_users`` costs one enclave crossing and one cloud commit,
    however many partitions it touches."""
    joiners = [f"new{i}" for i in range(PIPELINE_JOINERS)]
    min_partitions = (1 + PIPELINE_JOINERS) // PIPELINE_CAPACITY
    system = make_bench_system("fig8c-1", PIPELINE_CAPACITY,
                               auto_repartition=False)
    system.admin.create_group("g", ["seed0"])
    counters = footprint_counters(system)
    _, elapsed = time_call(system.admin.add_users, "g", joiners)
    delta = footprint_delta(counters, footprint_counters(system))
    assert (system.admin.group_state("g").table.partition_count
            >= min_partitions)
    sink.table(
        f"Fig 8c: batch add_users boundary footprint "
        f"({PIPELINE_JOINERS} joiners, capacity {PIPELINE_CAPACITY})",
        ["crossings", "ecalls", "cloud reqs", "commits", "latency"],
        [[delta["sgx.crossings"], delta["sgx.ecalls"],
          delta["cloud.requests"], delta["cloud.batch_commits"],
          format_seconds(elapsed)]],
    )

    assert delta["sgx.crossings"] == 1, "batch enrollment is one crossing"
    assert delta["cloud.requests"] == 1, \
        "batch enrollment is one cloud commit"
    assert delta["cloud.batch_commits"] == 1

    # Where the enrollment wall-clock goes: crossing vs cloud vs crypto.
    system = make_bench_system("fig8c-trace", PIPELINE_CAPACITY,
                               auto_repartition=False)
    system.admin.create_group("g", ["seed0"])
    traced_breakdown(sink, "pipelined batch-add time breakdown",
                     lambda: system.admin.add_users("g", joiners))

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
