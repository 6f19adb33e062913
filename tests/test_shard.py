"""Tests for repro.shard: rendezvous placement, the group-routed RNG,
N-shard byte-equivalence with the single-enclave deployment (including
after kill + respawn), attestation gating, the shard fault kinds, and
the kill-any-shard chaos harness."""

import hashlib

import pytest

from repro import obs
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.ec import P256, Curve, Point, precomp_registry
from repro.errors import (
    AttestationError,
    EnclaveError,
    StorageError,
    TransientAttestationError,
    UnavailableError,
    ValidationError,
)
from repro.faults import FaultInjector, FaultPlan, RetryPolicy, install
from repro.shard import (
    CONTROL_SCOPE,
    GroupRoutedRng,
    ShardedSystem,
    ShardRing,
    rendezvous_score,
)
from repro.workloads.chaos import cloud_digest, run_chaos
from tests.conftest import provisioned_usk

GROUPS = {
    "galois": ["galois.alice", "galois.bob", "galois.carol"],
    "noether": ["noether.dan", "noether.erin"],
    "abel": ["abel.frank", "abel.grace", "abel.heidi"],
}


def build(nshards, seed="shard-test"):
    return ShardedSystem(nshards=nshards, partition_capacity=4,
                         params="toy64", seed=seed)


def churn(system):
    """A fixed cross-group operation script, deliberately interleaved so
    per-group sequences cross shard boundaries between draws."""
    for gid in sorted(GROUPS):
        system.create_group(gid, GROUPS[gid])
    system.add_user("galois", "galois.dave")
    system.add_user("noether", "noether.frank")
    system.remove_user("galois", "galois.bob")
    system.rekey("noether")
    system.add_user("abel", "abel.ivan")
    system.remove_user("abel", "abel.frank")


def tables():
    return precomp_registry.snapshot()["ec.precomp.tables"]


def count_p256(monkeypatch):
    """Count P-256 generator multiplications and point decodes from
    here on, wrapping them as ``test_ciphertext_points_decoded`` wraps
    :meth:`Point.decode`.  A signature's nonce point comes from its
    ``sign_many`` batch, not from ``mul_generator``, so each signed
    message counts as one generator multiplication too."""
    counts = {"mul_generator": 0, "decode": 0}
    mul_generator = Curve.mul_generator
    sign_many = EcdsaPrivateKey.sign_many
    decode = Point.decode.__func__

    def counted_mul_generator(curve, k):
        counts["mul_generator"] += curve is P256
        return mul_generator(curve, k)

    def counted_sign_many(key, messages):
        counts["mul_generator"] += len(messages)
        return sign_many(key, messages)

    def counted_decode(cls, curve, data):
        counts["decode"] += curve is P256
        return decode(cls, curve, data)

    monkeypatch.setattr(Curve, "mul_generator", counted_mul_generator)
    monkeypatch.setattr(EcdsaPrivateKey, "sign_many", counted_sign_many)
    monkeypatch.setattr(Point, "decode", classmethod(counted_decode))
    return counts


def key_hashes(system):
    hashes = {}
    for gid in system.group_ids():
        member = sorted(system.group_state(gid).table.all_members())[0]
        client = system.make_client(gid, member)
        client.sync()
        hashes[gid] = hashlib.sha256(client.current_group_key()).hexdigest()
    return hashes


class TestShardRing:
    def test_owner_is_stable_and_in_range(self):
        ring = ShardRing([f"shard-{i}" for i in range(4)])
        owners = {gid: ring.owner(gid) for gid in
                  (f"group-{n}" for n in range(64))}
        assert all(0 <= o < 4 for o in owners.values())
        again = ShardRing([f"shard-{i}" for i in range(4)])
        assert owners == {gid: again.owner(gid) for gid in owners}

    def test_every_shard_owns_something(self):
        ring = ShardRing([f"shard-{i}" for i in range(4)])
        assignments = ring.assignments([f"group-{n}" for n in range(64)])
        assert len(assignments) == 4
        assert all(assignments)

    def test_membership_growth_only_moves_groups_to_the_new_shard(self):
        # The rendezvous property: adding a shard never reshuffles a
        # group between two pre-existing shards.
        small = ShardRing(["shard-0", "shard-1"])
        large = ShardRing(["shard-0", "shard-1", "shard-2"])
        for n in range(64):
            gid = f"group-{n}"
            if large.owner_id(gid) != "shard-2":
                assert large.owner_id(gid) == small.owner_id(gid)

    def test_scores_differ_by_shard(self):
        assert rendezvous_score("shard-0", "g") != \
            rendezvous_score("shard-1", "g")

    def test_invalid_memberships_rejected(self):
        with pytest.raises(ValidationError):
            ShardRing([])
        with pytest.raises(ValidationError):
            ShardRing(["shard-0", "shard-0"])


class TestGroupRoutedRng:
    def test_group_stream_independent_of_interleaving(self):
        a = GroupRoutedRng("seed")
        with a.scoped("group:g1"):
            first = a.random_bytes(8)
        with a.scoped("group:g2"):
            a.random_bytes(8)
        with a.scoped("group:g1"):
            second = a.random_bytes(8)

        b = GroupRoutedRng("seed")
        with b.scoped("group:g1"):
            assert b.random_bytes(8) == first
            assert b.random_bytes(8) == second

    def test_control_scope_is_default(self):
        rng = GroupRoutedRng("seed")
        assert rng.scope == CONTROL_SCOPE
        control = rng.random_bytes(8)
        other = GroupRoutedRng("seed")
        with other.scoped("group:g1"):
            pass
        assert other.random_bytes(8) == control

    def test_state_roundtrip(self):
        rng = GroupRoutedRng("seed")
        with rng.scoped("group:g1"):
            rng.random_bytes(8)
        state = rng.getstate()
        with rng.scoped("group:g1"):
            expected = rng.random_bytes(8)
        rng.setstate(state)
        with rng.scoped("group:g1"):
            assert rng.random_bytes(8) == expected


class TestShardedByteEquivalence:
    def test_shard_count_is_invisible_in_the_cloud(self):
        digests, hashes = set(), []
        for nshards in (1, 2, 4):
            system = build(nshards)
            try:
                churn(system)
                digests.add(cloud_digest(system.cloud))
                hashes.append(key_hashes(system))
            finally:
                system.close()
        assert len(digests) == 1
        assert hashes[0] == hashes[1] == hashes[2]

    def test_kill_and_respawn_converges_byte_identically(self):
        reference = build(1)
        try:
            churn(reference)
            expected = cloud_digest(reference.cloud)
            expected_keys = key_hashes(reference)
        finally:
            reference.close()

        system = build(3)
        try:
            for gid in sorted(GROUPS):
                system.create_group(gid, GROUPS[gid])
            # Kill every shard in turn mid-churn; routing lazily
            # respawns + re-attests the owner of the next routed op.
            system.kill_shard(0)
            system.add_user("galois", "galois.dave")
            system.add_user("noether", "noether.frank")
            system.kill_shard(1)
            system.remove_user("galois", "galois.bob")
            system.rekey("noether")
            system.kill_shard(2)
            system.add_user("abel", "abel.ivan")
            system.remove_user("abel", "abel.frank")
            for shard in system.shards:
                if not shard.alive:
                    system.respawn_shard(shard.index)
            assert cloud_digest(system.cloud) == expected
            assert key_hashes(system) == expected_keys
            assert sum(s.respawns for s in system.shards) >= 3
            assert system.health()["status"] == "ok"
        finally:
            system.close()


class TestFailover:
    def test_health_reflects_kill_and_respawn(self):
        system = build(2)
        try:
            system.create_group("galois", GROUPS["galois"])
            assert system.health()["status"] == "ok"
            victim = system.owner("galois")
            system.kill_shard(victim)
            report = system.health()
            assert report["status"] == "degraded"
            assert report["shards"][victim]["alive"] is False
            system.respawn_shard(victim)
            report = system.health()
            assert report["status"] == "ok"
            assert report["shards"][victim]["respawns"] == 1
        finally:
            system.close()

    def test_unattested_shard_refuses_to_serve(self):
        system = build(2)
        try:
            system.create_group("galois", GROUPS["galois"])
            system.shards[system.owner("galois")].attested = False
            with pytest.raises(EnclaveError):
                system.add_user("galois", "galois.dave")
        finally:
            system.close()

    def test_attestation_keys_build_no_tables(self):
        """Quote, IAS-report and peer keys are checked two or three times
        each — fewer than a table takes to pay back — and nobody marks
        them long-lived, so re-attestation leaves the table count alone."""
        from repro.ec import precomp_registry
        from repro.sgx.attestation import mutual_attest
        system = build(2)
        try:
            first, second = (shard.enclave for shard in system.shards)
            before = precomp_registry.snapshot()["ec.precomp.tables"]
            mutual_attest(first, second, system.ias)
            mutual_attest(second, first, system.ias)
            assert precomp_registry.snapshot()["ec.precomp.tables"] == before
        finally:
            system.close()

    def test_failover_builds_only_what_its_operation_uses(self,
                                                          monkeypatch):
        """Kill a shard, then its first routed add (respawn, MAGE
        re-attestation, the add): no fixed-base table, 7 P-256 generator
        multiplications, 1 P-256 point decode.  The parent commit read
        1 table (``restore_system`` tabled the secret ``g``, which only
        ``extract`` raises to a power), 10 multiplications (both
        enclaves' ``peer_offer`` and ``get_attestation_quote`` re-derived
        the identity public key) and 2 decodes (both ``register_peer``
        calls decoded the pinned IAS report key)."""
        system = build(2)
        try:
            for gid in sorted(GROUPS):
                system.create_group(gid, GROUPS[gid])
            victim = system.owner("galois")
            system.kill_shard(victim)
            counts = count_p256(monkeypatch)
            before = tables()
            system.add_user("galois", "galois.dave")
            assert system.shards[victim].respawns == 1
            assert tables() - before == 0
            assert counts == {"mul_generator": 7, "decode": 1}
        finally:
            system.close()

    def test_mutual_attestation_derives_no_identity_key(self, monkeypatch):
        """Between two live enclaves the handshake's generator
        multiplications are its four signatures (two quotes, two IAS
        reports) and it decodes no P-256 point: 4 and 0, where the
        parent commit ran 8 and 2 (each side's identity public key
        twice, the pinned IAS report key once)."""
        from repro.sgx.attestation import mutual_attest
        system = build(2)
        try:
            first, second = (shard.enclave for shard in system.shards)
            counts = count_p256(monkeypatch)
            mutual_attest(first, second, system.ias)
            assert counts == {"mul_generator": 4, "decode": 0}
        finally:
            system.close()

    def test_first_extraction_after_respawn_tables_g(self):
        """A respawned enclave leaves ``g``'s table to its first user-key
        extraction, which builds exactly that one table and returns the
        key the other shard extracts; the next extraction builds none."""
        system = build(2)
        try:
            system.kill_shard(1)
            system.respawn_shard(1)
            respawned, other = system.shards[1].system, system.shards[0].system
            before = tables()
            key = respawned.user_key("fresh.alice")
            assert tables() - before == 1
            assert (key.element.encode()
                    == other.user_key("fresh.alice").element.encode())
            before = tables()
            respawned.user_key("fresh.bob")
            assert tables() == before
        finally:
            system.close()

    def test_provisioning_retries_injected_attestation_faults(self):
        plan = FaultPlan(seed="attest", attest_fail_rate=1.0,
                         max_attest_fails=3)
        injector = FaultInjector(plan)
        install(injector)
        try:
            system = build(2, seed="attest-retry")
            try:
                assert all(s.attested for s in system.shards)
                assert injector.history()
                assert all(kind == "attest.fail"
                           for kind, _ in injector.history())
            finally:
                system.close()
        finally:
            install(None)


def die_in_ecalls(system, shard):
    """The shard dies as its plan enters the enclave: the dead enclave
    refuses the batch (:class:`EnclaveError`)."""
    admin = shard.admin

    def dying(ecalls):
        del admin._run_ecalls          # one death only
        system.kill_shard(shard.index)
        return admin._run_ecalls(ecalls)

    admin._run_ecalls = dying


def die_in_commit(system, shard):
    """The shard dies with its commit in flight and the store refuses it
    (a non-conflict :class:`StorageError`)."""
    admin = shard.admin

    def dying(state, effects):
        del admin._commit_effects      # one death only
        system.kill_shard(shard.index)
        raise StorageError("connection dropped mid-commit")

    admin._commit_effects = dying


class TestMidOperationDeath:
    """A shard that dies inside a routed operation leaves no half-applied
    state in its administrator's cache: the failed plan drops its group,
    and the retry — after the RNG rewind ``workloads.chaos.drive`` does —
    respawns the shard and reloads that group alone."""

    @pytest.mark.parametrize("die, error", [
        (die_in_ecalls, EnclaveError), (die_in_commit, StorageError)],
        ids=["ecalls", "commit"])
    def test_failed_add_drops_its_group_and_retry_reloads_only_it(
            self, die, error):
        gid = "galois"
        reference = build(1)
        try:
            for group in sorted(GROUPS):
                reference.create_group(group, GROUPS[group])
            reference.add_user(gid, "galois.dave")
            expected = cloud_digest(reference.cloud)
        finally:
            reference.close()

        system = build(2)
        try:
            for group in sorted(GROUPS):
                system.create_group(group, GROUPS[group])
            shard = system.shards[system.owner(gid)]
            assert sum(system.owner(g) == shard.index for g in GROUPS) >= 2
            admin = shard.admin
            die(system, shard)
            snapshot = system.rng.getstate()
            with pytest.raises(error):
                system.add_user(gid, "galois.dave")
            # The add had already placed the user in the table.
            assert gid not in admin.cache

            system.rng.setstate(snapshot)
            loads = []
            load = admin.load_group_from_cloud
            admin.load_group_from_cloud = (
                lambda group: loads.append(group) or load(group))
            system.add_user(gid, "galois.dave")
            assert shard.respawns == 1
            assert loads == [gid]
            assert cloud_digest(system.cloud) == expected
        finally:
            system.close()


class TestShardTrust:
    """Shards establish trust the way every deployment does: certified
    by the deployment's one Auditor, users provisioned over Fig. 3."""

    def test_clients_are_provisioned_over_the_certified_channel(self):
        system = build(2)
        try:
            system.create_group("galois", GROUPS["galois"])
            with obs.enabled() as tracer:
                tracer.reset()
                client = system.make_client("galois", "galois.alice")
                ecalls = [span.attrs["ecall"] for span in tracer.spans()
                          if span.name == "sgx.ecall"]
            tracer.reset()
            assert "provision_user_key" in ecalls
            client.sync()
            assert len(client.current_group_key()) == 32
        finally:
            system.close()

    def test_every_shard_is_certified_and_stays_so_across_respawn(self):
        system = build(2)
        try:
            for shard in system.shards:
                assert shard.system.auditor is system.auditor
                shard.system.certificate.verify(
                    system.auditor.ca_public_key)
                assert (shard.system.certificate.enclave_public_key
                        == shard.enclave.call("get_public_key"))
            first, second = (shard.system for shard in system.shards)
            certificate = first.certificate
            system.kill_shard(0)
            system.respawn_shard(0)
            # The identity key is bound to (platform, measurement), not
            # the instance: the pre-crash certificate still names it,
            # and a fresh identity provisions through it.
            assert first.certificate is certificate
            assert (certificate.enclave_public_key
                    == first.enclave.call("get_public_key"))
            assert (first.user_key("newcomer").element.encode()
                    == provisioned_usk(second.enclave, "newcomer"))
        finally:
            system.close()


class TestShardFaultKinds:
    def test_take_shard_kill_caps_and_replays(self):
        plan = FaultPlan(seed="kills", shard_kill_rate=1.0,
                         max_shard_kills=2)
        injector = FaultInjector(plan)
        victims = [injector.take_shard_kill(4) for _ in range(10)]
        assert sum(v is not None for v in victims) == 2
        assert all(v in range(4) for v in victims if v is not None)
        again = [FaultInjector(plan).take_shard_kill(4) for _ in range(1)]
        assert again[0] == victims[0]

    def test_attestation_fault_raises_transient(self):
        plan = FaultPlan(seed="attest", attest_fail_rate=1.0,
                         max_attest_fails=1)
        injector = FaultInjector(plan)
        with pytest.raises(TransientAttestationError):
            injector.attestation_fault("peer-offer")
        injector.attestation_fault("peer-offer")  # capped: no raise
        assert ("attest.fail", "peer-offer") in injector.history()

    def test_disabled_plan_is_a_noop(self):
        injector = FaultInjector(FaultPlan.disabled())
        assert injector.take_shard_kill(4) is None
        injector.attestation_fault("peer-offer")
        assert injector.history() == []

    def test_transient_attestation_error_is_retryable(self):
        # The class sits under both AttestationError (handlers) and
        # UnavailableError (RetryPolicy's default retry_on).
        assert issubclass(TransientAttestationError, AttestationError)
        assert issubclass(TransientAttestationError, UnavailableError)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientAttestationError("handshake dropped")
            return "attested"

        policy = RetryPolicy(max_attempts=5, seed="retry")
        assert policy.run(flaky) == "attested"
        assert len(attempts) == 3


class TestShardChaosHarness:
    def test_small_kill_any_shard_run_converges(self):
        report = run_chaos(nshards=2, groups=2, ops=6, pool=5,
                           initial=3, capacity=4, seed="test-shard-chaos")
        assert report.converged, report.summary()
        assert report.scheduled_kills == 2
        assert report.respawns >= report.scheduled_kills
        assert report.final_health["status"] == "ok"
        assert report.reference_digest == report.chaos_digest
