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

A deliberate change to what the system writes must re-capture these at
the parent commit and say so.
"""

from repro.faults import FaultPlan
from repro.workloads.chaos import run_chaos
from repro.workloads.scale import run_scale

SEED = "chaos-ci"
CLOUD = "b2a1f76e8b976c6a09396e6e16f44ba3b1003d7135a963efe2552fd152c1bb21"
COLD = "e12bfe9e6cbf70acb614342862319b9b50461e0ec3c6deb3228cd0adef3c9d3f"
KEY = "b3c9853d6c4dcb0fa186344858beef23542d783ecf773f4b5258af153248a88c"
SHARD = "183102b06893e3dc2c1833f619cc799f0382d8c810ecc909f11776ee4a81e8dc"
SCALE_SMALL = (
    "573c6d4acd9f903354c94c860d438ca026375fb7d4e2ab4445c125d1c6402cb7")


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
