"""Ablation — enclave memory pressure of HE vs IBBE metadata (§III-B).

The paper's motivation for rejecting HE-inside-SGX: hybrid encryption's
group metadata grows linearly and would have to live inside the enclave to
be re-encrypted on every revocation, while EPC memory is limited (128 MiB)
and enclave memory accesses pay 19.5 %/102 % overheads (HotCalls).  This
bench models both designs' enclave working sets across group sizes and
reports page faults and modeled cycle costs.
"""

from __future__ import annotations

import pytest

from repro.crypto import ecies
from repro.sgx.epc import PAGE_SIZE, EpcModel

from conftest import scaled

#: Bytes of enclave-resident metadata per user under HE (one wrapped key).
HE_BYTES_PER_USER = ecies.ciphertext_overhead() + 32
#: Constant enclave working set for IBBE-SGX (MSK + one partition's state).
IBBE_WORKING_SET = 4096

GROUP_SIZES = [10_000, 100_000, 1_000_000, 4_000_000]
#: A small EPC (scaled with the sweep) keeps the simulation cheap while
#: preserving the ratio EPC-size : working-set the paper argues about.
EPC_BYTES = 16 * 1024 * 1024


def _simulate_revocation_pass(working_set_bytes: int) -> EpcModel:
    """One revocation re-encryption pass touching the whole metadata."""
    epc = EpcModel(capacity_bytes=EPC_BYTES)
    handle = epc.allocate(max(working_set_bytes, 1))
    # Read everything once, write everything once (re-encryption).
    epc.touch(handle, working_set_bytes, write=False)
    epc.touch(handle, working_set_bytes, write=True)
    return epc


def test_epc_pressure_he_vs_ibbe(sink, benchmark):
    rows = []
    he_faults = []
    for n in GROUP_SIZES:
        he = _simulate_revocation_pass(n * HE_BYTES_PER_USER)
        ibbe = _simulate_revocation_pass(IBBE_WORKING_SET)
        rows.append([
            n,
            n * HE_BYTES_PER_USER // 1024,
            he.stats.page_faults,
            f"{he.stats.cycles / 1e6:.1f}M",
            ibbe.stats.page_faults,
            f"{ibbe.stats.cycles / 1e6:.3f}M",
        ])
        he_faults.append((n, he.stats.page_faults))
    sink.table(
        "Ablation: EPC pressure of a revocation pass (HE vs IBBE-SGX)",
        ["group size", "HE metadata (KB)", "HE faults", "HE cycles",
         "IBBE faults", "IBBE cycles"],
        rows,
    )

    # IBBE's working set fits the EPC at every size; HE's does not beyond
    # EPC capacity, and its faults grow linearly (thrashing).
    ibbe_run = _simulate_revocation_pass(IBBE_WORKING_SET)
    assert ibbe_run.stats.evictions == 0
    big = next(f for n, f in he_faults if n * HE_BYTES_PER_USER > EPC_BYTES)
    assert big > EPC_BYTES // PAGE_SIZE, "HE must thrash beyond the EPC"
    # In the thrashing regime (working set >> EPC) every page faults on
    # both the read and the write pass, so faults grow linearly with the
    # group size; compare the two largest sizes (both thrashing).
    (n_a, f_a), (n_b, f_b) = he_faults[-2], he_faults[-1]
    assert f_b / f_a == pytest.approx(n_b / n_a, rel=0.15), (
        "HE fault count must grow linearly once the EPC is exceeded"
    )

    benchmark.pedantic(
        lambda: _simulate_revocation_pass(scaled(100_000) * HE_BYTES_PER_USER),
        rounds=1, iterations=1,
    )


def test_system_level_he_sgx_vs_ibbe_sgx(sink, benchmark):
    """Run the *implemented* rejected design (HE inside SGX,
    :mod:`repro.baselines.hybrid_sgx`) against IBBE-SGX on real workloads
    and compare the enclaves' EPC statistics — the measured version of
    the §III-B argument."""
    from repro.baselines import HeSgxEnclave, HeSgxGroupManager
    from repro.crypto import ecies as ecies_mod
    from repro.crypto.rng import DeterministicRng
    from repro.sgx.device import SgxDevice

    from conftest import make_bench_system

    group_size = scaled(192)
    removals = scaled(8)
    users = [f"u{i}" for i in range(group_size)]

    # HE-SGX on its own device.
    rng = DeterministicRng("epc-system-he")
    he_device = SgxDevice(rng=rng)
    he_manager = HeSgxGroupManager(HeSgxEnclave.load(he_device))
    for user in users:
        he_manager.register_user(user, ecies_mod.generate_keypair(rng))
    he_manager.create_group("g", users)
    for user in users[:removals]:
        he_manager.remove_user("g", user)
    he_stats = he_device.epc.stats

    # IBBE-SGX: the full system on toy params (EPC accounting is
    # parameter-independent).
    system = make_bench_system("epc-system-ibbe", 32, params="toy64",
                               auto_repartition=False)
    system.admin.create_group("g", users)
    for user in users[:removals]:
        system.admin.remove_user("g", user)
    ibbe_stats = system.device.epc.stats

    sink.table(
        f"System-level EPC cost: {removals} revocations on a "
        f"{group_size}-member group",
        ["design", "enclave bytes read", "enclave bytes written",
         "modeled cycles"],
        [["HE-SGX", he_stats.read_bytes, he_stats.written_bytes,
          f"{he_stats.cycles / 1e6:.2f}M"],
         ["IBBE-SGX", ibbe_stats.read_bytes, ibbe_stats.written_bytes,
          f"{ibbe_stats.cycles / 1e6:.2f}M"]],
    )
    # IBBE-SGX stages member lists (written once, on entry) and no
    # stored ciphertext — a revocation re-derives each partition from
    # its list — so its side is all writes, while HE-SGX reads and
    # rewrites every wrapped key: compare bytes moved, not bytes read.
    he_moved = he_stats.read_bytes + he_stats.written_bytes
    ibbe_moved = ibbe_stats.read_bytes + ibbe_stats.written_bytes
    sink.line(f"  HE-SGX/IBBE-SGX bytes moved through the enclave: "
              f"{he_moved / ibbe_moved:.1f}x")
    assert he_moved > 3 * ibbe_moved, (
        "HE-SGX must move far more data through the enclave"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_read_write_overhead_asymmetry(sink, benchmark):
    """The HotCalls overheads the paper cites: reads cost more than
    writes inside the enclave (102 % vs 19.5 %)."""
    epc = EpcModel(capacity_bytes=EPC_BYTES)
    handle = epc.allocate(PAGE_SIZE)
    epc.touch(handle, 10)  # fault the page in
    read_cost = epc.touch(handle, 100_000 % PAGE_SIZE or 1, write=False)
    write_cost = epc.touch(handle, 100_000 % PAGE_SIZE or 1, write=True)
    ratio = read_cost / write_cost
    sink.line(f"read/write cost ratio: {ratio:.2f} "
              "(model: 2.02/1.195 = 1.69)")
    assert ratio == pytest.approx(2.02 / 1.195, rel=0.01)
    benchmark(lambda: epc.touch(handle, 1024, write=False))
