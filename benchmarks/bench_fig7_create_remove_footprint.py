"""Figure 7 — create/remove latency and storage footprint, IBBE-SGX vs HE.

Paper's observations:

* 7a: IBBE-SGX creates and removes ~1.2 orders of magnitude faster than
  HE across group sizes, and its metadata is up to 6 orders smaller;
  compared to raw IBBE, IBBE-SGX creation is 2.4-3.9 orders faster.
* 7b: per partition size, remove costs about half of create, and smaller
  partitions only mildly inflate the footprint (432 B vs 128 B at 1M).

The driver measures the full system path (enclave ecalls + cloud pushes).
"""

from __future__ import annotations

import pytest

from repro import ibbe
from repro.baselines import HePkiScheme, HybridGroupManager
from repro.bench import (
    extrapolate,
    fit_power_law,
    format_bytes,
    format_seconds,
    time_call,
)
from repro.crypto.rng import DeterministicRng

from conftest import (
    footprint_counters,
    footprint_delta,
    make_bench_system,
    scaled,
    traced_breakdown,
)

GROUP_SIZES = [32, 64, 128, 256]
PARTITION_SIZE = 32
PAPER_AXIS = [1_000, 10_000, 100_000, 1_000_000]

# Fixed scale for the operation-pipeline report (not subject to
# REPRO_BENCH_SCALE): a whole-group operation spanning many partitions.
PIPELINE_MEMBERS = 256
PIPELINE_PARTITIONS = 16


def _ibbe_sgx_run(n: int, capacity: int):
    """Create a group of n users, then remove one member.

    Returns (create_seconds, remove_seconds, crypto_footprint_bytes)."""
    system = make_bench_system(f"fig7-{n}-{capacity}", capacity,
                               params="std160",
                               auto_repartition=False)
    users = [f"u{i}" for i in range(n)]
    _, create_s = time_call(system.admin.create_group, "g", users)
    footprint = system.admin.group_state("g").crypto_footprint()
    _, remove_s = time_call(system.admin.remove_user, "g", users[n // 2])
    return create_s, remove_s, footprint


def _he_run(n: int):
    scheme = HePkiScheme(rng=DeterministicRng(f"fig7-he-{n}"))
    users = [f"u{i}" for i in range(n)]
    for user in users:
        scheme.register_user(user)
    manager = HybridGroupManager(scheme, rng=DeterministicRng("fig7-he"))
    _, create_s = time_call(manager.create_group, "g", users)
    footprint = manager.crypto_footprint("g")
    _, remove_s = time_call(manager.remove_user, "g", users[n // 2])
    return create_s, remove_s, footprint


@pytest.fixture(scope="module")
def sweep7a():
    sizes = [scaled(n) for n in GROUP_SIZES]
    capacity = scaled(PARTITION_SIZE)
    return {
        "IBBE-SGX": [(n, *_ibbe_sgx_run(n, capacity)) for n in sizes],
        "HE": [(n, *_he_run(n)) for n in sizes],
    }


def test_fig7a_create_remove_footprint(sweep7a, sink, benchmark):
    rows = []
    for name, points in sweep7a.items():
        for n, create_s, remove_s, footprint in points:
            rows.append([name, n, format_seconds(create_s),
                         format_seconds(remove_s), format_bytes(footprint),
                         "measured"])
        # All three metrics scale linearly in the group size for both
        # schemes (IBBE-SGX per-partition costs × number of partitions;
        # HE per-user costs × users).
        for n in PAPER_AXIS:
            create_p = extrapolate(
                [(a, b) for a, b, _, _ in points], n, exponent=1.0)
            remove_p = extrapolate(
                [(a, c) for a, _, c, _ in points], n, exponent=1.0)
            foot_p = extrapolate(
                [(a, d) for a, _, _, d in points], n, exponent=1.0)
            rows.append([name, n, format_seconds(create_p),
                         format_seconds(remove_p), format_bytes(foot_p),
                         "extrapolated n^1"])
    sink.table(
        "Fig 7a: create / remove latency and metadata footprint",
        ["scheme", "group size", "create", "remove", "footprint", "source"],
        rows,
    )

    # Shape: IBBE-SGX beats HE on every metric by a stable factor.
    for metric, index, paper_factor in (
        ("create", 0, "1.2 orders"), ("remove", 1, "1.2 orders"),
        ("footprint", 2, "up to 6 orders"),
    ):
        ratios = [
            he[index] / sgx[index]
            for sgx, he in zip(
                [p[1:] for p in sweep7a["IBBE-SGX"]],
                [p[1:] for p in sweep7a["HE"]],
            )
        ]
        mean_ratio = sum(ratios) / len(ratios)
        sink.line(f"  HE/IBBE-SGX {metric}: {mean_ratio:.1f}x mean "
                  f"(paper: {paper_factor})")
        assert mean_ratio > 2, f"IBBE-SGX must win on {metric}"

    # Footprint: per-partition constant × partitions vs per-user linear.
    sgx_foot = [(n, f) for n, _, _, f in sweep7a["IBBE-SGX"]]
    he_foot = [(n, f) for n, _, _, f in sweep7a["HE"]]
    he_per_user = he_foot[-1][1] / he_foot[-1][0]
    sgx_per_user = sgx_foot[-1][1] / sgx_foot[-1][0]
    assert he_per_user > 3 * sgx_per_user

    benchmark.pedantic(lambda: _ibbe_sgx_run(scaled(32), scaled(16)),
                       rounds=1, iterations=1)


def test_fig7b_partition_size_effect(sink, benchmark):
    """Create/remove/footprint at fixed group size, varying partition.

    Run at partition sizes where, as in the paper's 1000-4000 range, the
    per-member O(|p|) hashing work in create is non-negligible next to the
    per-partition exponentiations.  The paper measures remove at about
    half of create.  Here a removal re-derives every partition from its
    member list on the same tabled bases as create, with one lookup
    fewer per partition (an untouched partition's C3 is not recomputed):
    two G1 lookups and one GT against three and one, under the same
    O(|p|) hashing, signing and commit — so it is cheaper at every size,
    by less than half (see EXPERIMENTS.md)."""
    group_size = scaled(1024)
    capacities = [scaled(c) for c in (128, 256, 512, 1024)]
    rows = []
    measured = []
    for capacity in capacities:
        create_s, remove_s, footprint = _ibbe_sgx_run(group_size, capacity)
        measured.append((capacity, create_s, remove_s, footprint))
        rows.append([capacity, format_seconds(create_s),
                     format_seconds(remove_s), format_bytes(footprint)])
    sink.table(
        f"Fig 7b: IBBE-SGX by partition size (group = {group_size})",
        ["partition size", "create", "remove", "footprint"], rows,
    )

    # Both are |P|·O(1) within a small constant factor, and the
    # direction is the paper's: a removal is the cheaper of the two.
    ratio = sum(r / c for _, c, r, _ in measured) / len(measured)
    sink.line(f"  remove/create mean ratio: {ratio:.2f} (paper: ~0.5)")
    assert all(0.4 < r / c < 1 for _, c, r, _ in measured), (
        "a removal must cost less than a create at every partition size"
    )

    # Smaller partitions -> more partitions -> larger footprint, but the
    # degradation stays small (paper: 432 B vs 128 B at 1M).
    footprints = [f for _, _, _, f in measured]
    assert footprints[0] > footprints[-1]
    assert footprints[0] / footprints[-1] < 16

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fig7c_rekey_boundary_footprint(sink, benchmark):
    """Operation-pipeline report: a whole-group rekey spanning every
    partition costs one enclave crossing and one cloud commit, however
    many objects it writes (descriptor + N records + sealed key)."""
    members = [f"u{i}" for i in range(PIPELINE_MEMBERS)]
    capacity = PIPELINE_MEMBERS // PIPELINE_PARTITIONS
    system = make_bench_system("fig7c-1", capacity, auto_repartition=False)
    system.admin.create_group("g", members)
    assert (system.admin.group_state("g").table.partition_count
            == PIPELINE_PARTITIONS)
    counters = footprint_counters(system)
    _, elapsed = time_call(system.admin.rekey, "g")
    delta = footprint_delta(counters, footprint_counters(system))
    sink.table(
        f"Fig 7c: rekey boundary footprint ({PIPELINE_MEMBERS} members, "
        f"{PIPELINE_PARTITIONS} partitions)",
        ["crossings", "ecalls", "cloud reqs", "commits", "uploaded",
         "latency"],
        [[delta["sgx.crossings"], delta["sgx.ecalls"],
          delta["cloud.requests"], delta["cloud.batch_commits"],
          format_bytes(delta["cloud.bytes_in"]), format_seconds(elapsed)]],
    )

    assert delta["sgx.crossings"] == 1, "a rekey is one crossing"
    assert delta["cloud.requests"] == 1, "a rekey is one cloud request"
    assert delta["cloud.batch_commits"] == 1

    # Where the rekey wall-clock goes: crossing vs cloud vs crypto.
    system = make_bench_system("fig7c-trace", capacity,
                               auto_repartition=False)
    system.admin.create_group("g", members)
    traced_breakdown(sink, "pipelined rekey time breakdown",
                     lambda: system.admin.rekey("g"))

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
