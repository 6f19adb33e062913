"""Figure 6 — system bootstrap: setup latency and key-extract throughput.

Paper's observations:

* 6a: system setup latency grows linearly with the partition size
  (~1.2 s per 1,000 users on their hardware) — here on top of a fixed
  cost, the four fixed-base tables setup builds before its ``m``
  exponentiations of ``h``, so linearity is checked on the growth
  beyond the smallest size;
* 6b: key-extract throughput is constant (~764 op/s), independent of the
  partition size.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import ibbe
from repro.bench import fit_power_law, format_seconds, time_call
from repro.crypto.rng import DeterministicRng

from conftest import bench_scale, make_bench_system, scaled

PARTITION_SIZES = [64, 128, 256, 512]
EXTRACTS_PER_SIZE = 20

#: Fig. 5 worker sweep: the paper parallelizes group creation across
#: enclave threads; we sweep the repro.par engine's process count.
WORKER_COUNTS = [1, 2, 4]
BOOTSTRAP_USERS = 10_000
BOOTSTRAP_CAPACITY = 500


def test_fig6a_setup_latency(std_group, sink, benchmark):
    rng = DeterministicRng("fig6a")
    points = []
    for m in (scaled(m) for m in PARTITION_SIZES):
        _, elapsed = time_call(ibbe.setup, std_group, m, rng)
        points.append((m, elapsed))
    base_m, base_t = points[0]
    fit = fit_power_law([(m - base_m, t - base_t) for m, t in points[1:]])
    sink.table(
        "Fig 6a: system setup latency per partition size",
        ["partition size", "latency"],
        [[m, format_seconds(t)] for m, t in points],
    )
    per_1000 = base_t + fit.predict(1000 - base_m)
    sink.line(f"  fit of the growth beyond m={base_m}: {fit.describe()}")
    sink.line(f"  projected setup @1000 users: {format_seconds(per_1000)} "
              "(paper: ~1.2 s growth per 1000)")
    assert 0.85 <= fit.exponent <= 1.15, "setup must be linear in m"

    benchmark.pedantic(
        lambda: ibbe.setup(std_group, scaled(64), rng),
        rounds=1, iterations=1,
    )


def test_fig6b_extract_throughput(std_group, sink, benchmark):
    rng = DeterministicRng("fig6b")
    rows = []
    throughputs = []
    for m in (scaled(m) for m in PARTITION_SIZES):
        msk, pk = ibbe.setup(std_group, m, rng)
        start = time.perf_counter()
        for i in range(EXTRACTS_PER_SIZE):
            ibbe.extract(msk, pk, f"user{i}")
        elapsed = time.perf_counter() - start
        throughput = EXTRACTS_PER_SIZE / elapsed
        throughputs.append((m, throughput))
        rows.append([m, f"{throughput:.0f} op/s"])
    sink.table("Fig 6b: key extract throughput per partition size",
               ["partition size", "throughput"], rows)
    sink.line("  (paper: ~764 op/s, constant across partition sizes)")

    # Constant across partition sizes: max/min within 40 %.
    values = [t for _, t in throughputs]
    assert max(values) / min(values) < 1.4, (
        "extract throughput must be independent of the partition size"
    )

    msk, pk = ibbe.setup(std_group, scaled(64), rng)
    benchmark(lambda: ibbe.extract(msk, pk, "bench-user"))


def test_fig6c_parallel_bootstrap_sweep(sink, benchmark):
    """Group-creation scaling across engine worker counts (paper Fig. 5).

    Each worker count gets its own std160 deployment, built from the
    same seed, which bootstraps the same large group: every round
    consumes an identical randomness stream.  Two properties are checked:

    * partition metadata (ciphertext + envelope) is byte-identical at
      every worker count — the engine's determinism contract;
    * with >= 4 physical cores at full scale, 4 workers beat serial by
      >= 2x on a 10k-user bootstrap.
    """
    users = scaled(BOOTSTRAP_USERS)
    capacity = scaled(BOOTSTRAP_CAPACITY)
    members = [f"user{i:05d}" for i in range(users)]

    rows, timings, reference = [], {}, None
    for workers in WORKER_COUNTS:
        system = make_bench_system("fig6c", capacity, params="std160",
                                   workers=workers)
        try:
            system.admin.warm_enclave_workers()
            start = time.perf_counter()
            system.admin.create_group("boot", members)
            elapsed = time.perf_counter() - start
            state = system.admin.group_state("boot")
            snapshot = system.telemetry()["metrics"]
        finally:
            system.close()
        timings[workers] = elapsed

        blobs = {
            pid: (state.records[pid].ciphertext, state.records[pid].envelope)
            for pid in state.table.partition_ids
        }
        if reference is None:
            reference = blobs
        else:
            assert blobs == reference, (
                f"group metadata diverged at workers={workers}"
            )
        rows.append([workers, format_seconds(elapsed),
                     f"{timings[1] / elapsed:.2f}x",
                     int(snapshot["par.tasks"])])

    sink.table(
        f"Fig 6c: {users}-user bootstrap vs engine worker count "
        f"(capacity {capacity}, {len(reference)} partitions)",
        ["workers", "create_group", "speedup", "par.tasks"], rows,
    )
    sink.line("  (partition ciphertexts + envelopes byte-identical "
              "across all worker counts)")

    cores = os.cpu_count() or 1
    if cores >= 4 and bench_scale() >= 1.0:
        speedup = timings[1] / timings[4]
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at 4 workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    else:
        sink.line(f"  (speedup assertion skipped: {cores} cores, "
                  f"scale {bench_scale()})")

    system = make_bench_system("fig6c", capacity, params="std160")
    benchmark.pedantic(
        lambda: (system.admin.create_group("boot", members[:capacity]),
                 system.admin.delete_group("boot")),
        rounds=1, iterations=1,
    )
    system.close()
