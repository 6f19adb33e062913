"""Tests for repro.faults: deterministic plans, the injector, the
FaultyCloudStore decorator, RetryPolicy, and worker-kill recovery."""

import pytest

from repro.cloud import CloudBatch, CloudStore
from repro.errors import (
    CrashError,
    NotFoundError,
    ParallelError,
    StoreTimeoutError,
    UnavailableError,
)
from repro.faults import (
    READ_OPS,
    FaultInjector,
    FaultPlan,
    FaultyCloudStore,
    RetryPolicy,
    active,
    crash_point,
    install,
    use_faults,
)
from repro.obs.metrics import MetricRegistry


def drive_injector(injector, rounds=200):
    """Consult every injection door in a fixed pattern, swallowing the
    injected exceptions, and return the history."""
    for i in range(rounds):
        try:
            injector.store_fault("put", f"/g/p{i % 4}")
        except UnavailableError:
            pass
        try:
            injector.store_fault("get", f"/g/p{i % 4}")
        except UnavailableError:  # StoreTimeoutError included
            pass
        try:
            injector.crash_point("admin.plan.pre_commit")
        except CrashError:
            pass
        injector.take_worker_kill(8)
        injector.take_enclave_restart()
    return injector.history()


class TestFaultPlan:
    def test_disabled_plan_injects_nothing(self):
        injector = FaultInjector(FaultPlan.disabled())
        assert drive_injector(injector) == []

    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan.full_chaos("replay-me")
        first = drive_injector(FaultInjector(plan))
        second = drive_injector(FaultInjector(plan))
        assert first == second
        assert first  # the profile actually fires at these rates

    def test_different_seeds_differ(self):
        a = drive_injector(FaultInjector(FaultPlan.full_chaos("a")))
        b = drive_injector(FaultInjector(FaultPlan.full_chaos("b")))
        assert a != b

    def test_categories_draw_independent_streams(self):
        """Enabling one category must not perturb another's schedule."""
        base = FaultPlan(seed="iso", store_error_rate=0.1)
        with_kills = FaultPlan(seed="iso", store_error_rate=0.1,
                               worker_kill_rate=0.5, max_worker_kills=100)
        errors_only = [
            f for f in drive_injector(FaultInjector(with_kills))
            if f[0] == "store.unavailable"
        ]
        assert errors_only == drive_injector(FaultInjector(base))


class TestFaultInjector:
    def test_crash_cap(self):
        plan = FaultPlan(seed="s", crash_rate=1.0, max_crashes=2)
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(CrashError):
                injector.crash_point("x")
        injector.crash_point("x")  # cap reached: no-op
        assert injector.history() == [("crash", "x"), ("crash", "x")]

    def test_crash_error_carries_point(self):
        injector = FaultInjector(FaultPlan(seed="s", crash_rate=1.0))
        with pytest.raises(CrashError) as excinfo:
            injector.crash_point("cloud.commit.apply")
        assert excinfo.value.point == "cloud.commit.apply"

    def test_worker_kill_consumed_and_capped(self):
        plan = FaultPlan(seed="s", worker_kill_rate=1.0, max_worker_kills=1)
        injector = FaultInjector(plan)
        index = injector.take_worker_kill(8)
        assert index is not None and 0 <= index < 8
        assert injector.take_worker_kill(8) is None

    def test_enclave_restart_capped(self):
        plan = FaultPlan(seed="s", enclave_restart_rate=1.0,
                         max_enclave_restarts=2)
        injector = FaultInjector(plan)
        taken = sum(injector.take_enclave_restart() for _ in range(10))
        assert taken == 2

    def test_timeouts_only_on_reads(self):
        plan = FaultPlan(seed="s", store_timeout_rate=1.0)
        injector = FaultInjector(plan)
        for op in sorted(READ_OPS):
            with pytest.raises(StoreTimeoutError):
                injector.store_fault(op, "/p")
        # Writes are never ambiguous: no timeout may be injected there.
        for op in ("commit", "compact"):
            assert injector.store_fault(op, "/p") == 0.0

    def test_latency_spikes_accounted_not_slept(self):
        plan = FaultPlan(seed="s", latency_spike_rate=1.0,
                         latency_spike_ms=123.0)
        injector = FaultInjector(plan)
        assert injector.store_fault("get", "/p") == 123.0
        snapshot = injector.registry.snapshot()
        assert snapshot["faults.latency_ms"] == 123.0
        assert snapshot["faults.latency_spikes"] == 1

    def test_metrics_count_by_category(self):
        plan = FaultPlan.full_chaos("metrics")
        injector = FaultInjector(plan)
        history = drive_injector(injector)
        snapshot = injector.registry.snapshot()
        assert snapshot["faults.injected"] == len(history)
        kinds = [kind for kind, _ in history]
        assert snapshot["faults.store_errors"] == kinds.count("store.unavailable")
        assert snapshot["faults.crashes"] == kinds.count("crash")


class TestAmbientInstall:
    def test_crash_point_is_noop_without_injector(self):
        install(None)
        crash_point("anywhere")  # must not raise
        assert active() is None

    def test_use_faults_scopes_and_restores(self):
        injector = FaultInjector(FaultPlan(seed="s", crash_rate=1.0))
        assert active() is None
        with use_faults(injector) as installed:
            assert installed is injector
            assert active() is injector
            with pytest.raises(CrashError):
                crash_point("scoped")
        assert active() is None


class TestFaultyCloudStore:
    def make(self, plan):
        inner = CloudStore()
        injector = FaultInjector(plan)
        return FaultyCloudStore(inner, injector), inner, injector

    def test_transparent_when_disabled(self):
        store, inner, _ = self.make(FaultPlan.disabled())
        store.put("/g/a", b"data")
        assert store.get("/g/a").data == b"data"
        assert list(store.get_many(["/g/a"])) == ["/g/a"]
        assert store.list_dir("/g") == ["/g/a"]
        events, cursor = store.poll_dir("/g")
        assert len(events) == 1 and cursor == 1
        store.commit(CloudBatch().delete("/g/a"))
        assert inner.get_many(["/g/a"]) == {}

    def test_injected_outage_never_reaches_the_store(self):
        store, inner, _ = self.make(FaultPlan(seed="s", store_error_rate=1.0))
        with pytest.raises(UnavailableError):
            store.put("/g/a", b"data")
        assert inner.get_many(["/g/a"]) == {}

    def test_injected_timeout_on_reads(self):
        store, inner, _ = self.make(FaultPlan(seed="s", store_timeout_rate=1.0))
        inner.put("/g/a", b"data")
        with pytest.raises(StoreTimeoutError):
            store.get("/g/a")
        with pytest.raises(StoreTimeoutError):
            store.poll_dir("/g")
        # Writes still go through (timeouts are read-only faults).
        store.put("/g/b", b"more")
        assert inner.get("/g/b").data == b"more"

    def test_commit_guarded_as_one_round_trip(self):
        store, inner, injector = self.make(
            FaultPlan(seed="s", store_error_rate=1.0))
        batch = CloudBatch()
        batch.put("/g/a", b"one")
        batch.put("/g/b", b"two")
        with pytest.raises(UnavailableError):
            store.commit(batch)
        assert inner.get_many(["/g/a", "/g/b"]) == {}
        assert injector.history() == [("store.unavailable", "commit")]

    def test_inspection_interfaces_unguarded(self):
        store, inner, _ = self.make(FaultPlan(seed="s", store_error_rate=1.0))
        inner.put("/g/a", b"data")
        assert [o.path for o in store.adversary_view()] == ["/g/a"]
        assert store.metrics is inner.metrics


class TestRetryPolicy:
    def test_first_try_success_costs_nothing(self):
        policy = RetryPolicy(seed="t")
        assert policy.run(lambda: 42) == 42
        assert policy.slept_ms == 0.0
        assert policy.registry.snapshot()["retry.attempts"] == 0

    def test_retries_until_success(self):
        policy = RetryPolicy(max_attempts=5, seed="t")
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise UnavailableError("transient")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert len(calls) == 3
        assert policy.registry.snapshot()["retry.attempts"] == 2
        assert policy.slept_ms > 0.0

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=3, seed="t")
        calls = []

        def always_down():
            calls.append(1)
            raise UnavailableError("still down")

        with pytest.raises(UnavailableError, match="still down"):
            policy.run(always_down)
        assert len(calls) == 3
        assert policy.registry.snapshot()["retry.exhausted"] == 1

    def test_non_retryable_errors_pass_through(self):
        policy = RetryPolicy(max_attempts=5, seed="t")
        calls = []

        def wrong_kind():
            calls.append(1)
            raise NotFoundError("no such object")

        with pytest.raises(NotFoundError):
            policy.run(wrong_kind)
        assert len(calls) == 1

    def test_backoff_capped_exponential(self):
        policy = RetryPolicy(base_ms=10.0, cap_ms=50.0, multiplier=2.0,
                             jitter=0.0, seed="t")
        assert [policy.delay_ms(n) for n in range(1, 6)] == \
            [10.0, 20.0, 40.0, 50.0, 50.0]

    def test_jitter_deterministic_per_seed(self):
        a = RetryPolicy(jitter=0.5, seed="j")
        b = RetryPolicy(jitter=0.5, seed="j")
        c = RetryPolicy(jitter=0.5, seed="other")
        series_a = [a.delay_ms(1) for _ in range(8)]
        series_b = [b.delay_ms(1) for _ in range(8)]
        series_c = [c.delay_ms(1) for _ in range(8)]
        assert series_a == series_b
        assert series_a != series_c
        for delay in series_a:
            assert 7.5 <= delay <= 12.5  # base 10ms, jitter 0.5

    def test_on_retry_hook_sees_attempt_numbers(self):
        policy = RetryPolicy(max_attempts=4, seed="t")
        seen = []

        def flaky():
            if len(seen) < 2:
                raise UnavailableError("x")
            return "done"

        policy.run(flaky, on_retry=lambda exc, n: seen.append(n))
        assert seen == [1, 2]

    def test_retry_absorbs_injected_store_faults(self):
        """The integration the subsystem exists for: a retried put lands
        exactly once despite scheduled outages."""
        plan = FaultPlan(seed="absorb", store_error_rate=0.4)
        store = FaultyCloudStore(CloudStore(), FaultInjector(plan))
        policy = RetryPolicy(max_attempts=10, seed="absorb")
        for i in range(20):
            policy.run(lambda i=i: store.put(f"/g/p{i}", b"x"))
        assert sorted((o.path, o.version)
                      for o in store.inner.adversary_view()) == sorted(
            (f"/g/p{i}", 1) for i in range(20))


class TestWorkerKillRecovery:
    def run_parallel(self, plan, registry):
        from repro.par.pool import WorkerPool

        pool = WorkerPool(workers=2, registry=registry)
        try:
            with use_faults(FaultInjector(plan)):
                return pool.run(_square, list(range(8)))
        finally:
            pool.close()

    def test_respawn_preserves_results(self):
        registry = MetricRegistry()
        plan = FaultPlan(seed="kill", worker_kill_rate=1.0,
                         max_worker_kills=1)
        results = self.run_parallel(plan, registry)
        assert results == [n * n for n in range(8)]
        snapshot = registry.snapshot()
        assert snapshot["par.respawns"] == 1
        assert snapshot["par.failures"] == 0
        # Telemetry is single-counted: only the clean re-dispatch lands.
        assert snapshot["par.task.seconds.count"] == 8

    def test_serial_parallel_identity_across_kill(self):
        from repro.par.pool import WorkerPool

        serial_pool = WorkerPool(workers=1)
        serial = serial_pool.run(_square, list(range(8)))
        plan = FaultPlan(seed="kill", worker_kill_rate=1.0,
                         max_worker_kills=1)
        parallel = self.run_parallel(plan, MetricRegistry())
        assert parallel == serial

    def test_second_death_raises_parallel_error(self):
        from repro.par import pool as pool_mod
        from repro.par.pool import WorkerPool

        registry = MetricRegistry()
        pool = WorkerPool(workers=2, registry=registry)
        original = pool_mod._run_instrumented
        try:
            pool_mod._run_instrumented = _die_always
            with pytest.raises(ParallelError, match="kept dying"):
                pool.run(_square, list(range(4)))
        finally:
            pool_mod._run_instrumented = original
            pool.close()
        snapshot = registry.snapshot()
        assert snapshot["par.respawns"] == 1
        assert snapshot["par.failures"] == 1


def _square(n):
    return n * n


def _die_always(shipment):
    import os

    os._exit(113)
