"""Golden convergence digests, captured at commit c7257a9.

Every harness below is seeded end to end, so its digests are a pure
function of the code: any change to RNG draw order, plan construction,
commit batching or record encoding moves them.  They pin, across
refactors, the behaviour-preservation proof the deleted sequential admin
path used to provide by running twice.  The chaos values are the ones
the CI smoke commands print (``python -m repro.workloads.chaos --profile
{store,full,shard} --seed chaos-ci``); the scale value is the
``test_workloads_scale.SMALL`` scenario.

``SCALE_SMALL`` alone was re-captured at PR 20 (the CLI's ``--users 1e4
--seed 7`` moved with it, ``861a2e8c…c41c`` → ``dfaa69f9…2eb6``): a
second administrator now joins by the MAGE exchange, whose offer draws
a 32-byte challenge from the *source* enclave's stream, which the
deleted certificate door did not, so bytes written after the contention
phase's ``join`` shift; the store up to the join is byte-identical to
the parent's, and the four chaos digests did not move.

Every value below was re-captured on top of commit 0b9c6c9, when an add
stopped extending the stored ``C2`` and began rebuilding each partition
it touches under a fresh ``k`` (one ``create_partition`` ecall): an add
now draws a fresh ``k`` seed and envelope nonce and rewrites the
record's ``C1``, ``C2`` and envelope, so every byte written after the
first add moves, along with the group key of every later epoch.  In
each chaos run the reference and the chaotic deployment still agree.
``SCALE_1E4`` is the ``python -m repro.workloads.scale --users 1e4
--seed 7`` digest (``dfaa69f9…2eb6`` before this change), checked here
since the same re-capture.

A deliberate change to what the system writes must re-capture these at
the parent commit and say so.
"""

import argparse


from repro.faults import FaultPlan
from repro.workloads.chaos import run_chaos
from repro.workloads.scale import (
    add_scale_arguments,
    config_from_args,
    run_scale,
)

SEED = "chaos-ci"
CLOUD = "3f53c79c6dcf5373b2bb1185e5abf764c85bf3c16d1534690caaf8e5ab66e087"
COLD = "ce634d0080cfe6332af12650df4361c195ab5139c946055309d9de14fcf1f3f1"
KEY = "23f4b1e0de9e64c56690643d640729a4fb0ee59febaa898b6254df3f4b8c1c72"
SHARD = "aea4f0e074a3119f5ea467a6dc7eb55ca0357bebe206baa289d92f8340dd4b7b"
SCALE_SMALL = (
    "8f21d3ffb801588a3a6e4881b412e706a232582f43bd14f21b7c14957fb2fea6")
SCALE_1E4 = (
    "25fb1036718a5184cc88a388121e63d303832c4adbdf7ef882f22fb191ca9a1f")


def _assert_chaos(report):
    assert report.converged
    assert report.reference_digest == report.chaos_digest == CLOUD
    assert report.reference_cold_digest == report.chaos_cold_digest == COLD
    assert (report.reference_key_hashes == report.chaos_key_hashes
            == {"chaos": KEY})


def test_chaos_store_profile():
    _assert_chaos(run_chaos(FaultPlan.store_faults(SEED), seed=SEED))


def test_chaos_full_profile_with_compaction():
    report = run_chaos(FaultPlan.full_chaos(SEED), seed=SEED,
                       compact_every=3)
    _assert_chaos(report)
    assert report.crashes_recovered == 3


def test_shard_chaos_two_shards():
    # The CLI sizes: --ops 30 over --groups 3, --pool 12.
    report = run_chaos(FaultPlan.shard_chaos(SEED, nshards=2),
                       nshards=2, groups=3, ops=10, pool=12, initial=4,
                       seed=SEED)
    assert report.converged
    assert report.reference_digest == report.chaos_digest == SHARD


def test_scale_suite():
    report = run_scale(users=600, seed="suite", sync_clients=6,
                       churn_ops=60, contention_rounds=1, sync_rounds=2,
                       resync_churn=4)
    assert report.converged
    assert report.convergence_digest == SCALE_SMALL


def test_scale_cli_users_1e4_seed_7():
    """The scenario ``python -m repro.workloads.scale --users 1e4 --seed
    7`` runs, built from the same arguments."""
    parser = argparse.ArgumentParser()
    add_scale_arguments(parser)
    args = parser.parse_args(["--users", "1e4", "--seed", "7"])
    report = run_scale(config_from_args(args))
    assert report.converged
    assert report.convergence_digest == SCALE_1E4
