"""Deterministic fault schedules (the chaos counterpart of ``LatencyModel``).

A :class:`FaultPlan` is a *seeded description* of how flaky the world is:
transient store outages, read timeouts, latency spikes, crashes at named
crash points, worker deaths in the parallel engine, and full enclave
restarts.  A :class:`FaultInjector` executes a plan with the same
replayability contract :class:`~repro.cloud.latency.LatencyModel` gives
latencies — every decision is drawn from per-category
:class:`~repro.crypto.rng.DeterministicRng` streams, so the same seed
against the same workload yields the *identical* fault sequence
(recorded in :attr:`FaultInjector.log` and asserted by the chaos tests).

Injection sites consult the injector through two doors:

* explicitly — :class:`~repro.faults.FaultyCloudStore` holds its injector
  and calls :meth:`FaultInjector.store_fault` before delegating;
* ambiently — the :func:`~repro.faulthook.crash_point` sites, the worker
  pool's kill hook and the attestation driver read the process-wide slot
  of the leaf module :mod:`repro.faulthook` (``install`` /
  ``use_faults``), which sits below every layer that consults it.

Faults are *accounted, not slept*: latency spikes add to the
``faults.latency_ms`` counter rather than stalling the process, keeping
simulated time decoupled from wall-clock time exactly as the latency
model does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.rng import DeterministicRng
from repro.errors import (
    CrashError,
    StoreTimeoutError,
    TransientAttestationError,
    UnavailableError,
)
from repro.obs.metrics import MetricRegistry

#: Store operations that only read; timeouts are injected on these alone
#: (a timed-out write would leave the outcome ambiguous, which the
#: retry layer must never have to guess about).
READ_OPS = frozenset({"get", "get_many", "poll_dir", "list_dir"})


@dataclass(frozen=True)
class InjectedFault:
    """One executed fault, in injection order."""

    index: int   # 0-based position in the injector's log
    kind: str    # "store.unavailable" | "store.timeout" | "latency.spike"
                 # | "crash" | "worker.kill" | "enclave.restart"
                 # | "shard.kill" | "attest.fail"
    site: str    # operation, path, crash-point or handshake-step name

    def signature(self) -> Tuple[str, str]:
        return (self.kind, self.site)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault schedule.  All rates are per-consultation
    probabilities in ``[0, 1]``; the ``max_*`` caps bound the disruptive
    categories so a chaotic run always terminates."""

    seed: str = "chaos"
    #: Transient outage probability per store call (request never runs).
    store_error_rate: float = 0.0
    #: Read-timeout probability per store *read* call.
    store_timeout_rate: float = 0.0
    #: Latency-spike probability per store call (accounted, not slept).
    latency_spike_rate: float = 0.0
    latency_spike_ms: float = 250.0
    #: Crash probability per crash-point hit, capped by ``max_crashes``.
    crash_rate: float = 0.0
    max_crashes: int = 3
    #: Worker-death probability per parallel dispatch, capped below.
    worker_kill_rate: float = 0.0
    max_worker_kills: int = 1
    #: Enclave-restart probability per operation boundary, capped below.
    enclave_restart_rate: float = 0.0
    max_enclave_restarts: int = 1
    #: Shard-death probability per operation boundary of a sharded
    #: deployment (:mod:`repro.shard`), capped below.  A killed shard's
    #: next routed operation triggers the failover path: respawn,
    #: mutual re-attestation, sync-cursor replay.
    shard_kill_rate: float = 0.0
    max_shard_kills: int = 1
    #: Transient failure probability per mutual-attestation handshake
    #: step, capped below.  Raises
    #: :class:`~repro.errors.TransientAttestationError`, which the
    #: default :class:`~repro.faults.RetryPolicy` classifies as
    #: retryable, so a capped schedule always lets the handshake land.
    attest_fail_rate: float = 0.0
    max_attest_fails: int = 2

    @classmethod
    def disabled(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def store_faults(cls, seed: str = "chaos") -> "FaultPlan":
        """Transient store trouble only (outages, timeouts, spikes) —
        everything a :class:`~repro.faults.RetryPolicy` absorbs alone."""
        return cls(seed=seed, store_error_rate=0.08,
                   store_timeout_rate=0.05, latency_spike_rate=0.10)

    @classmethod
    def full_chaos(cls, seed: str = "chaos") -> "FaultPlan":
        """Store faults plus crashes and one enclave restart — requires
        a recovery driver (:mod:`repro.workloads.chaos`) on top."""
        return cls(seed=seed, store_error_rate=0.06,
                   store_timeout_rate=0.04, latency_spike_rate=0.08,
                   crash_rate=0.06, max_crashes=3,
                   enclave_restart_rate=0.05, max_enclave_restarts=2)

    @classmethod
    def shard_chaos(cls, seed: str = "chaos",
                    nshards: int = 2) -> "FaultPlan":
        """Sharded-deployment trouble: seeded shard deaths at operation
        boundaries plus transient mutual-attestation failures during the
        respawn handshakes.  Store faults stay off so every kill lands
        at a clean boundary — the chaos harness
        (:func:`repro.workloads.chaos.run_chaos` with ``nshards``) adds
        its own deterministic kill-each-shard-in-turn schedule on top."""
        return cls(seed=seed, shard_kill_rate=0.04,
                   max_shard_kills=max(1, nshards),
                   # The handshake consults the injector at ~4 sites per
                   # attempt, so the per-site rate stays modest — hot
                   # enough to exercise the retry path on most runs,
                   # cool enough that an 8-attempt budget never
                   # plausibly exhausts.
                   attest_fail_rate=0.08,
                   max_attest_fails=2 * max(1, nshards))


class FaultInjector:
    """Executes a :class:`FaultPlan`; deterministic given the call sequence.

    Each fault category draws from its own forked RNG stream, so (for
    example) enabling worker kills never perturbs the store-fault
    schedule.  Every injected fault is appended to :attr:`log` and
    counted in the ``faults.*`` namespace of :attr:`registry`:
    ``faults.injected``, ``faults.store_errors``, ``faults.timeouts``,
    ``faults.latency_spikes``, ``faults.latency_ms``, ``faults.crashes``,
    ``faults.worker_kills``, ``faults.enclave_restarts``,
    ``faults.shard_kills``, ``faults.attest_failures``.
    """

    def __init__(self, plan: FaultPlan,
                 registry: Optional[MetricRegistry] = None) -> None:
        self.plan = plan
        self.registry = registry if registry is not None else MetricRegistry()
        self.log: List[InjectedFault] = []
        master = DeterministicRng(f"faults:{plan.seed}")
        self._error_rng = master.fork("store-error")
        self._timeout_rng = master.fork("store-timeout")
        self._latency_rng = master.fork("latency-spike")
        self._crash_rng = master.fork("crash")
        self._kill_rng = master.fork("worker-kill")
        self._restart_rng = master.fork("enclave-restart")
        self._shard_rng = master.fork("shard-kill")
        self._attest_rng = master.fork("attest-fail")
        self._crashes = 0
        self._kills = 0
        self._restarts = 0
        self._shard_kills = 0
        self._attest_fails = 0
        self._injected = self.registry.counter("faults.injected")
        self._store_errors = self.registry.counter("faults.store_errors")
        self._timeouts = self.registry.counter("faults.timeouts")
        self._spikes = self.registry.counter("faults.latency_spikes")
        self._latency_ms = self.registry.counter("faults.latency_ms")
        self._crash_count = self.registry.counter("faults.crashes")
        self._kill_count = self.registry.counter("faults.worker_kills")
        self._restart_count = self.registry.counter("faults.enclave_restarts")
        self._shard_kill_count = self.registry.counter("faults.shard_kills")
        self._attest_fail_count = self.registry.counter(
            "faults.attest_failures")

    # -- the decision primitive ------------------------------------------------

    @staticmethod
    def _decide(rng: DeterministicRng, rate: float) -> bool:
        """One Bernoulli draw.  Consumes exactly one sample per call so
        the decision sequence is a pure function of the consultation
        sequence (the replayability contract)."""
        if rate <= 0.0:
            return False
        return rng.randint_below(1_000_000) < int(rate * 1_000_000)

    def _record(self, kind: str, site: str) -> InjectedFault:
        fault = InjectedFault(index=len(self.log), kind=kind, site=site)
        self.log.append(fault)
        self._injected.add()
        return fault

    # -- injection sites -------------------------------------------------------

    def store_fault(self, op: str, path: str = "") -> float:
        """Consulted by :class:`FaultyCloudStore` before every delegated
        call.  Returns extra accounted latency in milliseconds; raises
        :class:`UnavailableError` (any op) or :class:`StoreTimeoutError`
        (read ops) when the schedule says the request fails.
        """
        site = f"{op}:{path}" if path else op
        extra_ms = 0.0
        if self._decide(self._latency_rng, self.plan.latency_spike_rate):
            self._record("latency.spike", site)
            self._spikes.add()
            self._latency_ms.add(self.plan.latency_spike_ms)
            extra_ms = self.plan.latency_spike_ms
        if self._decide(self._error_rng, self.plan.store_error_rate):
            self._record("store.unavailable", site)
            self._store_errors.add()
            raise UnavailableError(
                f"injected transient outage on {op} {path or '(store)'}"
            )
        if op in READ_OPS and self._decide(self._timeout_rng,
                                           self.plan.store_timeout_rate):
            self._record("store.timeout", site)
            self._timeouts.add()
            raise StoreTimeoutError(
                f"injected read timeout on {op} {path or '(store)'}"
            )
        return extra_ms

    def crash_point(self, name: str) -> None:
        """Maybe die here.  Each hit draws once from the crash stream;
        the total is capped so recovery always converges (the redo of a
        crashed operation draws the *next* sample, which usually passes).
        """
        if self.plan.crash_rate <= 0.0 or self._crashes >= self.plan.max_crashes:
            return
        if self._decide(self._crash_rng, self.plan.crash_rate):
            self._crashes += 1
            self._record("crash", name)
            self._crash_count.add()
            raise CrashError(name)

    def take_worker_kill(self, ntasks: int) -> Optional[int]:
        """Consulted once per parallel dispatch; returns the task index
        whose worker should die mid-run, or ``None``.  The kill is
        consumed: the pool's respawn + re-dispatch runs clean."""
        if (self.plan.worker_kill_rate <= 0.0 or ntasks <= 0
                or self._kills >= self.plan.max_worker_kills):
            return None
        if not self._decide(self._kill_rng, self.plan.worker_kill_rate):
            return None
        self._kills += 1
        index = self._kill_rng.randint_below(ntasks)
        self._record("worker.kill", f"task:{index}")
        self._kill_count.add()
        return index

    def take_enclave_restart(self) -> bool:
        """Consulted by the chaos driver at operation boundaries."""
        if (self.plan.enclave_restart_rate <= 0.0
                or self._restarts >= self.plan.max_enclave_restarts):
            return False
        if not self._decide(self._restart_rng,
                            self.plan.enclave_restart_rate):
            return False
        self._restarts += 1
        self._record("enclave.restart", "op-boundary")
        self._restart_count.add()
        return True

    def take_shard_kill(self, nshards: int) -> Optional[int]:
        """Consulted by the sharded deployment's chaos driver at
        operation boundaries; returns the 0-based index of the shard to
        kill, or ``None``.  Mirrors :meth:`take_worker_kill`: one
        Bernoulli draw per consultation, plus one index draw when it
        fires, all from the dedicated shard-kill stream."""
        if (self.plan.shard_kill_rate <= 0.0 or nshards <= 0
                or self._shard_kills >= self.plan.max_shard_kills):
            return None
        if not self._decide(self._shard_rng, self.plan.shard_kill_rate):
            return None
        self._shard_kills += 1
        index = self._shard_rng.randint_below(nshards)
        self._record("shard.kill", f"shard:{index}")
        self._shard_kill_count.add()
        return index

    def attestation_fault(self, site: str) -> None:
        """Consulted by the mutual-attestation drivers at each handshake
        step.  Raises :class:`~repro.errors.TransientAttestationError`
        (retryable by the default :class:`~repro.faults.RetryPolicy`)
        when the schedule says the step fails; the cap guarantees a
        retried handshake eventually completes."""
        if (self.plan.attest_fail_rate <= 0.0
                or self._attest_fails >= self.plan.max_attest_fails):
            return
        if self._decide(self._attest_rng, self.plan.attest_fail_rate):
            self._attest_fails += 1
            self._record("attest.fail", site)
            self._attest_fail_count.add()
            raise TransientAttestationError(
                f"injected transient attestation failure at {site}"
            )

    # -- replay comparison -----------------------------------------------------

    def history(self) -> List[Tuple[str, str]]:
        """The fault sequence as comparable ``(kind, site)`` pairs."""
        return [fault.signature() for fault in self.log]
