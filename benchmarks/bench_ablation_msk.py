"""Ablation — the single cut that defines IBBE-SGX (§IV-B), plus the two
implementation optimizations this reproduction adds.

1. **MSK vs PK encryption**: having γ inside the enclave turns the O(n²)
   eq.-4 expansion into the O(n) eq.-3 product.  Head-to-head over the
   broadcast-set size.
2. **Incremental updates vs re-encryption**: A-E/A-F O(1) add/remove
   against the classic full re-encryption.
3. **Multi-exponentiation** (ours): interleaved multi-exp vs the
   PBC-style sequential exponentiations in PK-path assembly.
4. **Fixed-base tables** (ours): the same G1 / GT base exponentiated
   with and without its table.  Deployments table w/v/h/g
   unconditionally, so this is a kernel-level comparison: a decoded
   element carries no table, ``enable_precomputation()`` builds one.
"""

from __future__ import annotations

import pytest

from repro import ibbe
from repro.bench import format_seconds, time_call
from repro.crypto.rng import DeterministicRng

from conftest import scaled

SIZES = [32, 64, 128, 256]


@pytest.fixture(scope="module")
def setup_std(std_group):
    rng = DeterministicRng("ablation-msk")
    msk, pk = ibbe.setup(std_group, m=scaled(256), rng=rng)
    return msk, pk, rng


def test_msk_vs_pk_encryption(setup_std, sink, benchmark):
    msk, pk, rng = setup_std
    rows = []
    ratios = []
    for n in (scaled(s) for s in SIZES):
        members = [f"u{i}" for i in range(n)]
        _, t_pk = time_call(ibbe.encrypt_pk, pk, members, rng)
        _, t_msk = time_call(ibbe.encrypt_msk, msk, pk, members, rng)
        rows.append([n, format_seconds(t_pk), format_seconds(t_msk),
                     f"{t_pk / t_msk:.1f}x"])
        ratios.append((n, t_pk / t_msk))
    sink.table("Ablation: PK-path (classic IBBE) vs MSK-path (IBBE-SGX)",
               ["set size", "encrypt_pk", "encrypt_msk", "speedup"], rows)

    # The MSK path wins at every size, and its advantage grows with n
    # (constant #exps vs n exps + n² expansion).
    assert all(ratio > 2 for _, ratio in ratios)
    assert ratios[-1][1] > ratios[0][1]

    members = [f"u{i}" for i in range(scaled(64))]
    benchmark.pedantic(lambda: ibbe.encrypt_msk(msk, pk, members, rng),
                       rounds=1, iterations=1)


def test_incremental_vs_reencrypt(setup_std, sink, benchmark):
    msk, pk, rng = setup_std
    n = scaled(128)
    members = [f"u{i}" for i in range(n)]
    _, ct = ibbe.encrypt_msk(msk, pk, members, rng)

    _, t_add = time_call(ibbe.add_user_msk, msk, pk, ct, "new")
    _, t_remove = time_call(ibbe.remove_user_msk, msk, pk, ct,
                            members[0], rng)
    _, t_rekey = time_call(ibbe.rekey, pk, ct, rng)
    _, t_full_msk = time_call(ibbe.encrypt_msk, msk, pk, members, rng)
    _, t_full_pk = time_call(ibbe.reencrypt_pk, pk, members, rng)

    sink.table(
        f"Ablation: incremental updates vs re-encryption (n = {n})",
        ["operation", "latency"],
        [["add (A-E, O(1))", format_seconds(t_add)],
         ["remove (A-F, O(1))", format_seconds(t_remove)],
         ["rekey (A-G, O(1))", format_seconds(t_rekey)],
         ["re-encrypt via MSK (O(n))", format_seconds(t_full_msk)],
         ["re-encrypt via PK (O(n²))", format_seconds(t_full_pk)]],
    )
    assert t_add < t_full_pk
    assert t_remove < t_full_pk
    assert t_rekey < t_full_pk
    benchmark.pedantic(lambda: ibbe.add_user_msk(msk, pk, ct, "bench"),
                       rounds=1, iterations=1)


def test_multi_exp_optimization(setup_std, sink, benchmark):
    msk, pk, rng = setup_std
    n = scaled(128)
    members = [f"u{i}" for i in range(n)]
    _, t_seq = time_call(ibbe.encrypt_pk, pk, members, rng,
                         use_multi_exp=False)
    _, t_multi = time_call(ibbe.encrypt_pk, pk, members, rng,
                           use_multi_exp=True)
    sink.line(f"PK-path assembly (n={n}): sequential "
              f"{format_seconds(t_seq)}, multi-exp "
              f"{format_seconds(t_multi)} "
              f"({t_seq / t_multi:.1f}x)")
    assert t_multi < t_seq, "interleaved multi-exp must win"
    benchmark.pedantic(
        lambda: ibbe.encrypt_pk(pk, members, rng, use_multi_exp=True),
        rounds=1, iterations=1,
    )


def test_fixed_base_tables(std_group, sink, benchmark):
    rng = DeterministicRng("ablation-tables")
    exponents = [std_group.random_scalar(rng) for _ in range(scaled(20))]
    g1_base = std_group.g1 ** std_group.random_scalar(rng)
    rows = []
    for label, plain in (("G1", g1_base),
                         ("GT", std_group.pair(g1_base, std_group.g1))):
        tabled = type(plain).decode(std_group, plain.encode())
        _, t_build = time_call(tabled.enable_precomputation)
        expected, t_plain = time_call(lambda: [plain ** k for k in exponents])
        got, t_tabled = time_call(lambda: [tabled ** k for k in exponents])
        assert got == expected
        per_plain = t_plain / len(exponents)
        per_tabled = t_tabled / len(exponents)
        rows.append([label, format_seconds(per_plain),
                     format_seconds(per_tabled),
                     f"{per_plain / per_tabled:.1f}x",
                     format_seconds(t_build),
                     f"{t_build / (per_plain - per_tabled):.1f}"])
        assert per_tabled < per_plain, "a table must beat the ladder"
    sink.table("Ablation: tabled vs untabled base (std160, per exponentiation)",
               ["group", "untabled", "tabled", "speedup", "table build",
                "break-even exps"], rows)

    # The same comparison where it matters: re-key is the hottest
    # operation (once per partition per revocation) and exponentiates
    # v, w and the partition's own C3 — only the first two are tabled.
    n = scaled(64)
    members = [f"u{i}" for i in range(n)]
    msk, pk = ibbe.setup(std_group, m=n, rng=rng)
    untabled_pk = ibbe.IbbePublicKey.decode(pk.encode(), std_group)
    _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
    results = {}
    for label, key in (("plain", untabled_pk), ("tabled", pk)):
        def rekey_batch():
            for _ in range(10):
                ibbe.rekey(key, ct, rng)
        _, results[label] = time_call(rekey_batch)
    speedup = results["plain"] / results["tabled"]
    sink.line(f"10× rekey: untabled w/v {format_seconds(results['plain'])}, "
              f"tabled {format_seconds(results['tabled'])} "
              f"({speedup:.1f}x)")
    assert speedup > 1.2, "tables must speed up re-keying"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
