"""Ablation — client decrypt-hint caching (our extension beyond the paper).

The quadratic part of IBBE decryption (polynomial expansion +
multi-exponentiation) depends only on the partition's member set, not on
the ciphertext.  Since every revocation re-keys *every* partition
(Algorithm 3), clients under churn repeatedly decrypt fresh ciphertexts
over an unchanged member set — exactly the case the hint cache turns into
one two-term product pairing over cached Miller lines.

This bench replays a revocation-heavy workload from a client's perspective
with the cache enabled vs disabled — and then a *membership*-heavy one,
which the cache alone does not help (every set is new) and the hint
update (``ibbe.update_decryption``, the reader of ``C3``) does.
"""

from __future__ import annotations

import time

import pytest

from repro import ibbe
from repro.bench import format_seconds
from repro.crypto.rng import DeterministicRng

from conftest import scaled

PARTITION_SIZE = 128
REKEYS = 12


def test_client_cache_under_rekey_churn(std_group, sink, benchmark):
    rng = DeterministicRng("ablation-client-cache")
    n = scaled(PARTITION_SIZE)
    msk, pk = ibbe.setup(std_group, m=n, rng=rng)
    members = [f"u{i}" for i in range(n)]
    usk = ibbe.extract(msk, pk, members[0])
    bk, ct = ibbe.encrypt_msk(msk, pk, members, rng)

    # A revocation storm: the partition is re-keyed over and over (its
    # member set unchanged — the user is in another partition's blast
    # radius each time).
    ciphertexts = []
    for _ in range(scaled(REKEYS)):
        bk, ct = ibbe.rekey(pk, ct, rng)
        ciphertexts.append((bk, ct))

    start = time.perf_counter()
    for bk_expected, ciphertext in ciphertexts:
        assert ibbe.decrypt(pk, usk, members, ciphertext) == bk_expected
    cold = time.perf_counter() - start

    hint = ibbe.prepare_decryption(pk, usk, members)
    start = time.perf_counter()
    for bk_expected, ciphertext in ciphertexts:
        assert ibbe.decrypt_with_hint(pk, usk, hint,
                                      ciphertext) == bk_expected
    warm = time.perf_counter() - start

    speedup = cold / warm
    sink.line(
        f"{len(ciphertexts)} re-key decrypts @ partition {n}: "
        f"plain {format_seconds(cold)}, hint-cached {format_seconds(warm)} "
        f"({speedup:.1f}x)"
    )
    assert speedup > 1.5, "the hint cache must amortize the expansion"

    benchmark.pedantic(
        lambda: ibbe.decrypt_with_hint(pk, usk, hint, ciphertexts[0][1]),
        rounds=1, iterations=1,
    )


def test_hint_update_under_membership_churn(std_group, sink, benchmark):
    """The member's own partition changes every time: one leaves, one
    joins, over and over."""
    rng = DeterministicRng("ablation-client-update")
    n = scaled(PARTITION_SIZE)
    msk, pk = ibbe.setup(std_group, m=n, rng=rng)
    members = [f"u{i}" for i in range(n)]
    usk = ibbe.extract(msk, pk, members[0])
    _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
    history = [(list(members), None, ct)]
    for i in range(scaled(REKEYS)):
        if i % 2:
            members = members + [f"joiner{i}"]
        else:
            members = members[:1] + members[2:]
        bk, ct = ibbe.encrypt_msk(msk, pk, members, rng)
        history.append((members, bk, ct))
    changes = history[1:]

    start = time.perf_counter()
    for current, bk_expected, ciphertext in changes:
        assert ibbe.decrypt(pk, usk, current, ciphertext) == bk_expected
    plain = time.perf_counter() - start

    cache = {}
    start = time.perf_counter()
    for current, bk_expected, ciphertext in changes:
        hint = cache.get(tuple(current))
        if hint is None:        # always: no set repeats
            hint = cache[tuple(current)] = ibbe.prepare_decryption(
                pk, usk, current)
        assert ibbe.decrypt_with_hint(pk, usk, hint,
                                      ciphertext) == bk_expected
    cached = time.perf_counter() - start

    # Warm as a client is after its first decrypt; the first change
    # builds the witness inside the timer.
    hint = ibbe.prepare_decryption(pk, usk, history[0][0])
    start = time.perf_counter()
    for (_, _, old), (current, bk_expected, ciphertext) in zip(history,
                                                               changes):
        hint = ibbe.update_decryption(pk, hint, current, old.c3.encode(),
                                      ciphertext.c3.encode())
        assert ibbe.decrypt_with_hint(pk, usk, hint,
                                      ciphertext) == bk_expected
    updated = time.perf_counter() - start

    sink.line(
        f"{len(changes)} membership-change decrypts @ partition {n}: "
        f"no cache {format_seconds(plain)}, hint cache "
        f"{format_seconds(cached)}, hint update {format_seconds(updated)} "
        f"({plain / updated:.1f}x, first change builds the witness)"
    )
    assert cached > 0.8 * plain, "a cache of sets that never repeat is idle"
    assert plain / updated > 2, "the update must beat the expansion"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_cache_speedup_grows_with_partition(std_group, sink, benchmark):
    """The amortized win grows quadratically with the partition size."""
    rng = DeterministicRng("ablation-client-cache2")
    speedups = []
    for n in (scaled(s) for s in (32, 128)):
        msk, pk = ibbe.setup(std_group, m=n, rng=rng)
        members = [f"u{i}" for i in range(n)]
        usk = ibbe.extract(msk, pk, members[0])
        _, ct = ibbe.encrypt_msk(msk, pk, members, rng)
        bk, ct = ibbe.rekey(pk, ct, rng)

        start = time.perf_counter()
        ibbe.decrypt(pk, usk, members, ct)
        cold = time.perf_counter() - start
        hint = ibbe.prepare_decryption(pk, usk, members)
        start = time.perf_counter()
        ibbe.decrypt_with_hint(pk, usk, hint, ct)
        warm = time.perf_counter() - start
        speedups.append((n, cold / warm))
    for n, s in speedups:
        sink.line(f"  partition {n}: per-decrypt speedup {s:.1f}x")
    assert speedups[-1][1] > speedups[0][1], (
        "larger partitions must benefit more"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
