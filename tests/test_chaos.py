"""Chaos-equivalence tests: the executable form of the fault-model
contract in DESIGN.md — a retried, recovered, restarted run converges to
the same final state as the fault-free run."""

import json
import threading

import pytest

from repro import quickstart_system
from repro.cloud import CloudStore
from repro.crypto import DeterministicRng
from repro.errors import ParameterError
from repro.faults import FaultPlan
from repro.workloads import chaos
from repro.workloads.chaos import (
    cloud_digest,
    make_membership_trace,
    run_chaos,
)


class TestCloudDigest:
    def test_versions_excluded(self):
        a, b = CloudStore(), CloudStore()
        a.put("/g/p0", b"data")
        b.put("/g/p0", b"old")
        b.put("/g/p0", b"data")  # same bytes, higher version
        assert cloud_digest(a) == cloud_digest(b)

    def test_sealed_gk_excluded(self):
        a, b = CloudStore(), CloudStore()
        for store, blob in ((a, b"sealed-one"), (b, b"sealed-two")):
            store.put("/g/p0", b"data")
            store.put("/g/sealed-gk", blob)
        assert cloud_digest(a) == cloud_digest(b)

    def test_content_differences_detected(self):
        a, b = CloudStore(), CloudStore()
        a.put("/g/p0", b"data")
        b.put("/g/p0", b"tampered")
        assert cloud_digest(a) != cloud_digest(b)


class TestMembershipTrace:
    def test_deterministic_per_seed(self):
        assert make_membership_trace(20, 10, 4, "t") == \
            make_membership_trace(20, 10, 4, "t")
        assert make_membership_trace(20, 10, 4, "t") != \
            make_membership_trace(20, 10, 4, "u")

    def test_trace_is_always_valid(self):
        initial, trace = make_membership_trace(40, 10, 4, "valid")
        members = set(initial)
        for op in trace:
            if op.kind == "add":
                assert op.user not in members
                members.add(op.user)
            else:
                assert op.user in members
                members.remove(op.user)
            assert members  # never empties the group


class TestChaosEquivalence:
    def test_store_faults_converge(self):
        report = run_chaos(FaultPlan.store_faults("ci-store"),
                           ops=12, pool=8, initial=4, seed="ci-store")
        assert report.fault_history  # faults actually fired
        assert report.retry_backoff_ms > 0.0
        assert report.revocation_checks > 0
        assert report.revocation_failures == 0
        assert report.reference_digest == report.chaos_digest
        assert report.reference_key_hashes == report.chaos_key_hashes
        assert report.converged

    def test_full_chaos_with_crashes_converges(self):
        report = run_chaos(FaultPlan.full_chaos("ci-full"),
                           ops=12, pool=8, initial=4, seed="ci-full")
        assert report.converged
        assert report.crashes_recovered >= 1
        kinds = {kind for kind, _ in report.fault_history}
        assert "crash" in kinds

    def test_enclave_restart_resumes_administration(self):
        """An injected full enclave restart (seal → fresh load → unseal)
        must leave subsequent operations byte-equivalent and every
        later revocation enforced."""
        plan = FaultPlan(seed="ci-restart", store_error_rate=0.05,
                         crash_rate=0.08, max_crashes=2,
                         enclave_restart_rate=0.5, max_enclave_restarts=1)
        report = run_chaos(plan, ops=12, pool=8, initial=4,
                           seed="ci-restart")
        assert report.enclave_restarts == 1
        assert report.converged
        assert report.revocation_failures == 0

    def test_same_seed_reproduces_identical_fault_sequence(self):
        plan = FaultPlan.full_chaos("ci-replay")
        first = run_chaos(plan, ops=10, pool=8, initial=4, seed="ci-replay")
        second = run_chaos(plan, ops=10, pool=8, initial=4, seed="ci-replay")
        assert first.fault_history == second.fault_history
        assert first.chaos_digest == second.chaos_digest
        assert first.summary() == second.summary()


    def test_crashes_recover_per_group_on_a_multi_group_trace(self):
        """The single-enclave kind over the interleaved trace: a crash
        reloads only the group whose operation died."""
        report = run_chaos(FaultPlan.full_chaos("ci-multi"), groups=2,
                           ops=8, pool=6, initial=3, seed="ci-multi")
        assert report.groups == ["g0", "g1"]
        assert report.crashes_recovered >= 1
        assert report.converged, report.summary()

    def test_sharded_run_rejects_file_store_options(self):
        with pytest.raises(ParameterError):
            run_chaos(nshards=2, groups=2, compact_every=3)
        with pytest.raises(ParameterError):
            run_chaos(nshards=2, groups=2, remote=True)


def _server_threads():
    return [t for t in threading.enumerate()
            if t.name == "repro-store-server"]


class TestHarnessCanFail:
    """The verdict is only worth something if the harness can say no."""

    TINY = ["--ops", "6", "--pool", "6", "--seed", "neg"]

    @pytest.fixture
    def lossy_chaos_side(self, monkeypatch):
        """The chaos side silently drops the trace's last operation."""
        real = chaos._Run.apply

        def lossy(run, gid, op):
            if run.injector is not None and run.ops_applied == 5:
                run.ops_applied += 1
                return
            real(run, gid, op)

        monkeypatch.setattr(chaos._Run, "apply", lossy)

    def test_dropped_operation_diverges(self, lossy_chaos_side, capsys):
        report = run_chaos(ops=6, pool=6, seed="neg")
        assert report.ops_applied == report.ops_total == 6
        assert report.reference_digest != report.chaos_digest
        assert (report.reference_membership_digest
                != report.chaos_membership_digest)
        assert report.converged is False
        assert chaos.main(self.TINY) == 1
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_failed_run_leaves_nothing_running(self, monkeypatch):
        """An exception mid-trace must still close both deployments:
        no server thread (or its client socket, or an enclave worker
        pool) may outlive run_chaos in the calling process."""
        real = chaos._Run.apply

        def failing(run, gid, op):
            if run.injector is None:
                return real(run, gid, op)
            assert _server_threads()    # the chaos side is serving
            raise RuntimeError("mid-trace failure")

        before = len(_server_threads())
        monkeypatch.setattr(chaos._Run, "apply", failing)
        with pytest.raises(RuntimeError, match="mid-trace"):
            run_chaos(ops=4, pool=6, seed="leak", remote=True)
        assert len(_server_threads()) == before


class TestMain:
    """Tier-1 coverage of the CLI the CI smoke matrix runs."""

    TINY = ["--ops", "8", "--pool", "6", "--seed", "t1-main"]

    @pytest.mark.parametrize("profile_args", [
        ["--profile", "store"],
        ["--profile", "full", "--compact-every", "3"],
        ["--profile", "shard", "--shards", "2", "--groups", "2"],
    ], ids=["store", "full-compact", "shard"])
    def test_profile_converges(self, profile_args, capsys):
        assert chaos.main(profile_args + self.TINY) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert summary["ops_applied"] == summary["ops_total"] == 8
        assert summary["reference_digest"] == summary["chaos_digest"]
        if "shard" in profile_args:
            assert summary["nshards"] == 2
            assert summary["scheduled_kills"] == 2
            assert summary["final_health"]["status"] == "ok"
        else:
            assert summary["reference_cold_digest"]

    @pytest.mark.parametrize("argv", [
        ["--trace"],
        ["--profile", "store", "--shards", "2"],
        ["--profile", "full", "--groups", "2"],
        ["--profile", "shard", "--compact-every", "3"],
        ["--profile", "shard", "--network"],
    ], ids=["trace-without-network", "shards-outside-shard",
            "groups-outside-shard", "shard-compact", "shard-network"])
    def test_inapplicable_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            chaos.main(argv + self.TINY)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestEnclaveRestart:
    """System.restart_enclave in isolation (no fault injector)."""

    def make_system(self):
        return quickstart_system(
            partition_capacity=4, params="toy64",
            rng=DeterministicRng("restart-test"), auto_repartition=False,
        )

    def test_restart_unseals_and_resumes(self):
        system = self.make_system()
        try:
            system.admin.create_group("g", ["a", "b", "c"])
            client = system.make_client("g", "a")
            client.sync()
            key_before = client.current_group_key()
            old_enclave = system.enclave
            system.restart_enclave()
            assert system.enclave is not old_enclave
            assert system.admin.enclave is system.enclave
            # The restarted enclave administers the group: a removal
            # re-keys, and the surviving member derives the new key.
            system.admin.remove_user("g", "b")
            client.sync()
            key_after = client.current_group_key()
            assert key_after != key_before
        finally:
            system.close()

    def test_seal_versions_survive_restart(self):
        """Monotonic counters are a platform service: a restarted
        enclave must keep advancing the seal version, not reset it (a
        reset would let the host replay pre-restart sealed blobs)."""
        system = self.make_system()
        try:
            system.admin.create_group("g", ["a", "b"])
            counter = system.device.counters
            version_before = counter.read("gk:g")
            system.restart_enclave()
            # Only revocation re-keys (hence reseals) in IBBE-SGX.
            system.admin.remove_user("g", "b")
            assert counter.read("gk:g") > version_before
        finally:
            system.close()
