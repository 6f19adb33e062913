"""Million-user scale suite: Zipf groups, bursty churn, OCC, sync storms.

Every other workload in :mod:`repro.workloads` drives a few hundred
users through uniform groups; this module generates the traffic shape
the ROADMAP's "heavy traffic from millions of users" north star actually
implies, the way the SGX benchmark-suite literature argues wide-coverage
workload suites (not microbenchmarks) are what expose enclave-system
bottlenecks:

* **Zipfian group sizes** — a handful of very large groups and a long
  tail of small ones (:func:`zipf_group_sizes`), built rank-size style
  so the distribution is a pure function of ``(users, exponent)``;
* **bursty join/leave churn** — membership operations arrive in bursts
  aimed at size-weighted groups, with a configurable revocation mix and
  a decrypt-rate signal feeding the adaptive partition policy;
* **multi-admin OCC contention** — a second administrator (attested MSK
  migration, ``System.join``) deliberately races stale views through
  :class:`~repro.core.multiadmin.ConcurrentAdministrator`;
* **read-heavy sync/resume traffic** — a bounded fleet of clients syncs,
  derives keys, then re-syncs incrementally after more churn (the
  O(changes) resume path).

Everything is seeded and deterministic: two runs with the same
``(users, seed)`` — with or without ``--faults``, at any worker count —
finish on the byte-identical :attr:`ScaleReport.convergence_digest`.
The CI ``scale-smoke`` job and the nightly soak both rely on exactly
that property.

**Calibration mode** (``--calibrate``) measures the partition cost
model's coefficients from live runs instead of trusting the
microbenchmark defaults: ``c_rekey`` from revocation wall times across
partition counts, ``c_decrypt`` from decrypt wall times across partition
sizes (both via :func:`repro.core.adaptive.fit_linear_cost`), attributes
where the time goes with span aggregation, and emits the recommended
cutoff curve ``m*(n)`` for n ∈ {10⁴, 10⁵, 10⁶} against the paper's
``sqrt(n)`` rule (§IV-C/§VIII).

Run headlessly::

    python -m repro.workloads.scale --users 1e5 --seed 7
    python -m repro.workloads.scale --users 1e5 --seed 7 --faults
    python -m repro.workloads.scale --calibrate --seed 7
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.adaptive import (
    AdaptiveAdministrator,
    AdaptivePolicy,
    CoefficientFit,
    CutoffPoint,
    fit_linear_cost,
)
from repro.crypto.rng import DeterministicRng
from repro.deploy import quickstart_system
from repro.errors import ParameterError, ReproError
from repro.obs.metrics import Histogram, MetricRegistry
from repro.workloads.chaos import (
    cloud_digest,
    drive,
    group_key_hash,
    locked_out,
    membership_digest,
    reload_group,
    server_observability,
)

OP_JOIN = "join"
OP_LEAVE = "leave"

#: Group sizes the calibration cutoff curve is evaluated at — the regime
#: the paper's sqrt(n) rule targets (§VIII sizes groups up to 10⁶).
CURVE_SIZES = (10_000, 100_000, 1_000_000)

#: Deterministic churn-throughput estimate used to translate a
#: ``--duration`` budget into an op count *ahead of time* (wall-clock
#: truncation would break run-to-run byte-identity).
EST_CHURN_OPS_PER_SEC = 40


# ---------------------------------------------------------------------------
# Configuration and the deterministic generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleConfig:
    """One scale scenario; every field participates in determinism."""

    users: int = 100_000
    seed: str = "scale"
    #: Rank-size exponent of the group-size distribution; 1.0–1.3 spans
    #: "few huge groups" to "flatter tail".
    zipf_exponent: float = 1.1
    #: The largest group holds at most this fraction of all users.
    max_group_fraction: float = 0.2
    min_group_size: int = 3
    #: Membership operations in the churn phase (None: derived from
    #: ``users``, clamped to [200, 5000]).
    churn_ops: Optional[int] = None
    #: Mean burst length of the bursty arrival process.
    burst_mean: int = 6
    #: Fraction of churn operations that are revocations.
    revocation_mix: float = 0.35
    #: Decrypt observations recorded per membership operation (feeds the
    #: adaptive policy's rate window; may be fractional).
    decrypt_mix: float = 2.0
    #: Bounded client fleet for the read-heavy phase.
    sync_clients: int = 32
    sync_rounds: int = 2
    #: Churn ops replayed between sync rounds so re-syncs are
    #: incremental (the resume path), carved out of the main trace.
    resync_churn: int = 24
    #: Interleaved stale-view rounds in the OCC contention phase.
    contention_rounds: int = 3
    #: Partition capacity rule at creation: "sqrt" (the paper's cutoff)
    #: or "fixed:<k>".
    capacity_rule: str = "sqrt"
    review_every: int = 16
    workers: Optional[int] = 1
    faults: bool = False
    store_url: Optional[str] = None
    compact_every: Optional[int] = None
    #: Advisory wall budget: deterministically shrinks the churn-op
    #: count via EST_CHURN_OPS_PER_SEC (never truncates by wall clock).
    duration: Optional[float] = None

    def effective_churn_ops(self) -> int:
        ops = self.churn_ops
        if ops is None:
            ops = max(200, min(5000, self.users // 50))
        if self.duration is not None:
            ops = min(ops, max(50, int(self.duration
                                       * EST_CHURN_OPS_PER_SEC)))
        return ops


def zipf_group_sizes(users: int, exponent: float = 1.1,
                     max_group_fraction: float = 0.2,
                     min_group_size: int = 3) -> List[int]:
    """Rank-size (Zipf) partition of ``users`` into group sizes.

    Group ``k`` (1-based rank) gets ``head / k**exponent`` members,
    floored at ``min_group_size``, where ``head`` is the largest group's
    size (``users · max_group_fraction``).  The remainder fills a long
    tail of minimum-size groups, so the distribution has exactly the
    shape the suite needs — a few huge groups, many tiny ones — and is a
    pure function of its arguments (no sampling noise).
    """
    if users < min_group_size:
        raise ParameterError(
            f"need at least {min_group_size} users, got {users}")
    if exponent <= 0:
        raise ParameterError("zipf exponent must be positive")
    head = max(min_group_size, int(users * max_group_fraction))
    sizes: List[int] = []
    remaining = users
    rank = 1
    while remaining > 0:
        size = max(min_group_size, int(head / rank ** exponent))
        if remaining - size < min_group_size:
            size = remaining     # absorb the tail into the last group
        sizes.append(size)
        remaining -= size
        rank += 1
    return sizes


@dataclass(frozen=True)
class GroupSpec:
    """One group of the scenario: id, size and partition capacity."""

    rank: int
    group_id: str
    size: int
    capacity: int
    first_user: int     # global index of the first initial member

    def initial_members(self) -> List[str]:
        return [f"u{self.first_user + i:08d}" for i in range(self.size)]


def _capacity_for(size: int, rule: str) -> int:
    if rule == "sqrt":
        return max(2, min(512, int(round(math.sqrt(size)))))
    if rule.startswith("fixed:"):
        return max(1, int(rule.split(":", 1)[1]))
    raise ParameterError(f"unknown capacity rule {rule!r}")


def plan_groups(config: ScaleConfig) -> List[GroupSpec]:
    """The deterministic group roster for a configuration."""
    sizes = zipf_group_sizes(config.users, config.zipf_exponent,
                             config.max_group_fraction,
                             config.min_group_size)
    groups: List[GroupSpec] = []
    cursor = 0
    for rank, size in enumerate(sizes, start=1):
        groups.append(GroupSpec(
            rank=rank, group_id=f"g{rank:05d}", size=size,
            capacity=_capacity_for(size, config.capacity_rule),
            first_user=cursor,
        ))
        cursor += size
    return groups


@dataclass(frozen=True)
class ChurnEvent:
    """One generated membership operation plus its decrypt signal."""

    group_id: str
    kind: str       # OP_JOIN | OP_LEAVE
    user: str
    decrypts: int


def generate_churn(groups: Sequence[GroupSpec], ops: int,
                   config: ScaleConfig) -> List[ChurnEvent]:
    """Bursty, size-weighted churn trace over the group roster.

    Bursts target one group at a time (arrival bursts are what make
    churn hard: a rekey storm on one group, not a uniform trickle);
    group choice is weighted by ``sqrt(size)`` so large groups see most
    of the churn without starving the tail.  Membership is simulated so
    every event is valid against the state it will find, and leaves
    never drain a group below ``min_group_size`` members.  Departed
    users may rejoin (revocation followed by re-admission is the
    paper's hardest client path: the rejoiner must see the new key).
    """
    rng = DeterministicRng(f"scale-churn:{config.seed}:{ops}")
    members: Dict[str, List[str]] = {
        g.group_id: g.initial_members() for g in groups
    }
    departed: Dict[str, List[str]] = {g.group_id: [] for g in groups}
    weights = [max(1, int(round(math.sqrt(g.size)))) for g in groups]
    total_weight = sum(weights)
    cumulative: List[int] = []
    acc = 0
    for w in weights:
        acc += w
        cumulative.append(acc)

    def pick_group() -> GroupSpec:
        ticket = rng.randint_below(total_weight)
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] <= ticket:
                lo = mid + 1
            else:
                hi = mid
        return groups[lo]

    rev_threshold = int(config.revocation_mix * 1_000_000)
    dec_base = int(config.decrypt_mix)
    dec_extra = int((config.decrypt_mix - dec_base) * 1_000_000)
    fresh = 0
    events: List[ChurnEvent] = []
    while len(events) < ops:
        group = pick_group()
        gid = group.group_id
        burst = 1 + rng.randint_below(max(1, 2 * config.burst_mean - 1))
        for _ in range(min(burst, ops - len(events))):
            roster = members[gid]
            decrypts = dec_base
            if dec_extra and rng.randint_below(1_000_000) < dec_extra:
                decrypts += 1
            want_leave = rng.randint_below(1_000_000) < rev_threshold
            if want_leave and len(roster) > config.min_group_size:
                victim = roster.pop(rng.randint_below(len(roster)))
                departed[gid].append(victim)
                events.append(ChurnEvent(gid, OP_LEAVE, victim, decrypts))
            else:
                gone = departed[gid]
                if gone and rng.randint_below(2) == 0:
                    user = gone.pop(rng.randint_below(len(gone)))
                else:
                    user = f"j{fresh:07d}"
                    fresh += 1
                roster.append(user)
                events.append(ChurnEvent(gid, OP_JOIN, user, decrypts))
    return events


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

def _histogram_summary(histogram: Histogram) -> Dict[str, float]:
    """Millisecond quantile summary of a seconds histogram."""
    return {
        "count": float(histogram.count),
        "p50_ms": histogram.quantile(0.50) * 1e3,
        "p95_ms": histogram.quantile(0.95) * 1e3,
        "p99_ms": histogram.quantile(0.99) * 1e3,
        "max_ms": (histogram.max or 0.0) * 1e3,
        "mean_ms": histogram.mean * 1e3,
    }


@dataclass
class PhaseStat:
    """Throughput of one phase."""

    ops: int = 0
    seconds: float = 0.0

    def summary(self) -> Dict[str, float]:
        rate = self.ops / self.seconds if self.seconds > 0 else 0.0
        return {"ops": float(self.ops),
                "seconds": round(self.seconds, 3),
                "ops_per_sec": round(rate, 2)}


@dataclass
class ScaleReport:
    """Structured outcome of one :func:`run_scale` execution."""

    users: int
    seed: str
    faults: bool
    workers: int
    groups: int = 0
    largest_group: int = 0
    smallest_group: int = 0
    churn_ops: int = 0
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    trajectory: List[dict] = field(default_factory=list)
    resizes: int = 0
    occ_conflicts: int = 0
    occ_exhausted: int = 0
    faults_injected: int = 0
    retry_backoff_ms: float = 0.0
    revocation_checks: int = 0
    revocation_failures: int = 0
    cloud_objects: int = 0
    cloud_bytes: int = 0
    snapshot_horizon: int = 0
    key_hashes: Dict[str, str] = field(default_factory=dict)
    #: Full metric snapshot (runner registry + deployment telemetry) for
    #: the Prometheus exporter; not part of :meth:`summary`.
    metrics: Dict[str, float] = field(default_factory=dict)
    membership_digest: str = ""
    cloud_content_digest: str = ""
    convergence_digest: str = ""
    wall_seconds: float = 0.0
    #: Remote-store runs only: the live server's rolling per-method SLO
    #: windows and request-log tail, fetched over the wire (``ops.stats``).
    server_slo: Dict[str, Any] = field(default_factory=dict)
    request_log_tail: List[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """All sampled clients reached a key, every sampled revoked
        user is locked out, and the digests were computable."""
        return (self.revocation_failures == 0
                and bool(self.convergence_digest)
                and all(self.key_hashes.values()))

    def summary(self) -> Dict[str, Any]:
        return {
            "users": self.users,
            "seed": self.seed,
            "faults": self.faults,
            "workers": self.workers,
            "groups": self.groups,
            "largest_group": self.largest_group,
            "smallest_group": self.smallest_group,
            "churn_ops": self.churn_ops,
            "phases": self.phases,
            "latency": self.latency,
            "resizes": self.resizes,
            "trajectory_points": len(self.trajectory),
            "trajectory_tail": self.trajectory[-8:],
            "occ_conflicts": self.occ_conflicts,
            "occ_exhausted": self.occ_exhausted,
            "faults_injected": self.faults_injected,
            "retry_backoff_ms": round(self.retry_backoff_ms, 3),
            "revocation_checks": self.revocation_checks,
            "revocation_failures": self.revocation_failures,
            "cloud_objects": self.cloud_objects,
            "cloud_bytes": self.cloud_bytes,
            "snapshot_horizon": self.snapshot_horizon,
            "key_hashes": dict(self.key_hashes),
            "membership_digest": self.membership_digest,
            "cloud_content_digest": self.cloud_content_digest,
            "convergence_digest": self.convergence_digest,
            "converged": self.converged,
            "wall_seconds": round(self.wall_seconds, 3),
            "server_slo": self.server_slo,
            "request_log_tail": self.request_log_tail[-8:],
        }


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

class ScaleRunner:
    """Drives one deployment through the scale scenario, phase by phase.

    Phases are public so ``tests/test_footprint.py`` can meter them
    individually:
    :meth:`provision` → :meth:`churn` → :meth:`contention` →
    :meth:`sync_storm` → :meth:`finish`.  ``run_scale`` strings them all
    together.
    """

    def __init__(self, config: ScaleConfig) -> None:
        self.config = config
        self.groups = plan_groups(config)
        max_capacity = max(g.capacity for g in self.groups)
        self.system_bound = max(16, 2 * max_capacity)
        self.rng = DeterministicRng(f"scale-system:{config.seed}")
        self._open_store()
        self.system = quickstart_system(
            partition_capacity=self.groups[0].capacity, params="toy64",
            rng=self.rng, cloud=self.store, auto_repartition=False,
            system_bound=self.system_bound, workers=config.workers,
        )
        policy = AdaptivePolicy(
            min_capacity=2,
            max_capacity=self.system_bound,
        )
        self.adaptive = AdaptiveAdministrator(
            self.system.admin, policy, review_every=config.review_every)
        self.registry = MetricRegistry()
        self._provision_seconds = self.registry.histogram(
            "scale.provision.seconds")
        self._churn_seconds = self.registry.histogram("scale.churn.seconds")
        self._sync_seconds = self.registry.histogram("scale.sync.seconds")
        self._decrypt_seconds = self.registry.histogram(
            "scale.decrypt.seconds")
        self.phase_stats: Dict[str, PhaseStat] = {}
        self.trace: List[ChurnEvent] = []
        self._resync_slices: List[List[ChurnEvent]] = []
        self.clients: Dict[Tuple[str, str], Any] = {}
        self.revocation_checks = 0
        self.revocation_failures = 0
        self._removed: List[ChurnEvent] = []
        self._second = None     # the contention phase's co-administrator

    # -- plumbing ----------------------------------------------------------

    def _open_store(self) -> None:
        """The store the deployment is built on: ``inner_store`` is the
        real one (digested at the end), ``store`` what the deployment
        talks to — the same, or its fault-injecting decorator."""
        from repro.cloud import CloudStore
        from repro.faults import FaultInjector, FaultPlan, FaultyCloudStore

        config = self.config
        if config.store_url:
            from repro.net import RemoteCloudStore

            self.inner_store = RemoteCloudStore(config.store_url)
        else:
            self.inner_store = CloudStore(compact_every=config.compact_every)
        self.store = self.inner_store
        self._injector = None
        if config.faults:
            # Store-profile faults only: outages, read timeouts and
            # latency spikes, all absorbed by the RetryPolicy layers.
            # Crash/restart schedules need the chaos harness's recovery
            # driver and stay in repro.workloads.chaos.
            plan = FaultPlan.store_faults(f"scale:{config.seed}")
            self._injector = FaultInjector(plan)
            self.store = FaultyCloudStore(self.inner_store, self._injector)

    def _phase(self, name: str) -> PhaseStat:
        stat = self.phase_stats.get(name)
        if stat is None:
            stat = self.phase_stats[name] = PhaseStat()
        return stat

    # -- phases ------------------------------------------------------------

    def provision(self) -> None:
        """Create the whole Zipf roster (one ``create_group`` each)."""
        stat = self._phase("provision")
        start = time.perf_counter()
        admin = self.system.admin
        for group in self.groups:
            admin.partition_capacity = group.capacity
            t0 = time.perf_counter()
            self.adaptive.create_group(group.group_id,
                                       group.initial_members())
            self._provision_seconds.observe(time.perf_counter() - t0)
            stat.ops += 1
        stat.seconds += time.perf_counter() - start
        ops = self.config.effective_churn_ops()
        full = generate_churn(self.groups, ops + self.config.resync_churn
                              * max(0, self.config.sync_rounds - 1),
                              self.config)
        self.trace = full[:ops]
        tail = full[ops:]
        step = self.config.resync_churn
        self._resync_slices = [tail[i:i + step]
                               for i in range(0, len(tail), step)]

    def _apply_event(self, event: ChurnEvent) -> None:
        """One membership operation, run to completion across exhausted
        retry budgets (rare even under the fault profile) by the chaos
        harness's recovery driver: reload the group and, if the
        operation never landed, redo it from the RNG snapshot."""
        gid, user = event.group_id, event.user
        admin = self.system.admin
        joining = event.kind == OP_JOIN
        act = self.adaptive.add_user if joining else self.adaptive.remove_user
        drive(self.rng, lambda: act(gid, user),
              lambda: (user in admin.group_state(gid).table) == joining,
              lambda: reload_group(admin, gid))
        if not joining:
            self._removed.append(event)
        if event.decrypts:
            self.adaptive.record_decrypt(gid, count=event.decrypts)

    def churn(self) -> None:
        """Replay the bursty membership trace through the adaptive
        administrator (partition-size reviews happen inline)."""
        stat = self._phase("churn")
        start = time.perf_counter()
        for event in self.trace:
            t0 = time.perf_counter()
            self._apply_event(event)
            self._churn_seconds.observe(time.perf_counter() - t0)
            stat.ops += 1
        stat.seconds += time.perf_counter() - start

    def contention(self) -> None:
        """Two concurrent administrators race stale views on one
        mid-size group; OCC conflicts resolve through the shared
        retry/backoff policy."""
        from repro.core.multiadmin import ConcurrentAdministrator
        from repro.sgx.device import SgxDevice

        stat = self._phase("contention")
        start = time.perf_counter()
        target = self.groups[min(len(self.groups) - 1,
                                 max(1, len(self.groups) // 3))]
        gid = target.group_id
        admin1 = ConcurrentAdministrator(self.system.admin)
        # A second administrator: own enclave on its own device,
        # attested MSK migration, shared organisational signing key.
        seed = self.config.seed
        self._second = self.system.join(
            SgxDevice(rng=DeterministicRng(f"scale-admin2:{seed}")),
            rng=DeterministicRng(f"scale-admin2-ops:{seed}"))
        admin2 = ConcurrentAdministrator(self._second.admin)
        for round_index in range(self.config.contention_rounds):
            tag = f"occ{round_index:03d}"
            admin2.refresh(gid)
            admin2.add_user(gid, f"{tag}-a")
            # Stale view on purpose: admin1 last refreshed before
            # admin2's mutation, so its conditional put loses and the
            # conflict loop re-syncs and retries.
            admin1.add_user(gid, f"{tag}-b")
            admin2.refresh(gid)
            admin2.remove_user(gid, f"{tag}-a")
            admin1.rekey(gid)
            stat.ops += 4
        self.system.admin.sync_group(gid)
        stat.seconds += time.perf_counter() - start

    def _sample_clients(self) -> List[Tuple[str, str]]:
        """Deterministic bounded client fleet: the biggest groups get
        two members each (first and middle), then tail groups get one,
        until the budget is spent."""
        picks: List[Tuple[str, str]] = []
        budget = self.config.sync_clients
        head = self.groups[:max(1, budget // 4)]
        for group in head:
            if len(picks) + 2 > budget:
                break
            roster = self.system.admin.members(group.group_id)
            if not roster:
                continue
            picks.append((group.group_id, roster[0]))
            if len(roster) > 2:
                picks.append((group.group_id, roster[len(roster) // 2]))
        tail = self.groups[len(head):]
        stride = max(1, len(tail) // max(1, budget - len(picks)))
        for group in tail[::stride]:
            if len(picks) >= budget:
                break
            roster = self.system.admin.members(group.group_id)
            if roster:
                picks.append((group.group_id, roster[0]))
        return picks

    def sync_storm(self) -> None:
        """Read-heavy traffic: the client fleet syncs and derives keys;
        between rounds a reserved churn slice lands so later rounds
        exercise the incremental (O(changes)) resume path."""
        stat = self._phase("sync")
        start = time.perf_counter()
        picks = self._sample_clients()
        for round_index in range(self.config.sync_rounds):
            if round_index > 0:
                slice_index = round_index - 1
                if slice_index < len(self._resync_slices):
                    for event in self._resync_slices[slice_index]:
                        self._apply_event(event)
            for gid, member in picks:
                key = (gid, member)
                client = self.clients.get(key)
                if client is None:
                    client = self.system.make_client(gid, member)
                    self.clients[key] = client
                t0 = time.perf_counter()
                try:
                    client.sync()
                    client.current_group_key()
                except ReproError:
                    # Removed by an interleaved churn slice — that is
                    # the revocation invariant working, not a failure.
                    pass
                self._sync_seconds.observe(time.perf_counter() - t0)
                stat.ops += 1
        stat.seconds += time.perf_counter() - start

    def check_revocations(self, sample: int = 8) -> None:
        """The revocation invariant at scale: the most recently revoked
        users (still absent at the end of the trace) must not reach a
        group key through a fresh client."""
        current: Dict[str, set] = {}
        for event in reversed(self._removed):
            gid = event.group_id
            if len(current) > 64:
                break
            roster = current.get(gid)
            if roster is None:
                roster = current[gid] = set(
                    self.system.admin.members(gid))
            if event.user in roster:
                continue    # rejoined later; not a revocation any more
            self.revocation_checks += 1
            if not locked_out(self.system.make_client(gid, event.user)):
                self.revocation_failures += 1
            if self.revocation_checks >= sample:
                break

    # -- the verdict -------------------------------------------------------

    def key_hashes(self, sample: int = 6) -> Dict[str, str]:
        """Group-key hashes at one surviving member of the largest
        ``sample`` groups (the semantic stand-in for sealed-key bytes,
        as in the chaos harness)."""
        hashes: Dict[str, str] = {}
        for group in self.groups[:sample]:
            gid = group.group_id
            key = (gid, sorted(self.system.admin.members(gid))[0])
            if key not in self.clients:
                self.clients[key] = self.system.make_client(*key)
            hashes[gid] = group_key_hash(self.clients[key])
        return hashes

    def finish(self) -> ScaleReport:
        """Digest the final state and assemble the report."""
        config = self.config
        report = ScaleReport(
            users=config.users, seed=config.seed, faults=config.faults,
            workers=self.system.workers,
        )
        report.groups = len(self.groups)
        report.largest_group = self.groups[0].size
        report.smallest_group = self.groups[-1].size
        report.churn_ops = len(self.trace)
        report.revocation_checks = self.revocation_checks
        report.revocation_failures = self.revocation_failures
        report.resizes = self.adaptive.resizes
        report.trajectory = [p.summary() for p in self.adaptive.trajectory]
        registry = self.system.admin.metrics.registry
        report.occ_conflicts = int(
            registry.counter("admin.conflict.retries").value)
        report.occ_exhausted = int(
            registry.counter("admin.conflict.exhausted").value)
        if self._second is not None:
            report.occ_conflicts += int(
                self._second.admin.metrics.registry.counter(
                    "admin.conflict.retries").value)
        if self._injector is not None:
            report.faults_injected = len(self._injector.log)
        report.retry_backoff_ms = (
            self.system.admin.retry.slept_ms
            + sum(c.retry.slept_ms for c in self.clients.values()))

        # Fleet-wide latency distributions.
        for client in self.clients.values():
            self._decrypt_seconds.merge(
                client.registry.histogram("client.decrypt.seconds"))
        admin_ops = Histogram("scale.admin.op.seconds")
        admin_ops.merge(registry.histogram("admin.op.seconds"))
        report.latency = {
            "provision": _histogram_summary(self._provision_seconds),
            "churn_op": _histogram_summary(self._churn_seconds),
            "client_sync": _histogram_summary(self._sync_seconds),
            "client_decrypt": _histogram_summary(self._decrypt_seconds),
            "admin_op": _histogram_summary(admin_ops),
        }
        report.phases = {name: stat.summary()
                         for name, stat in self.phase_stats.items()}
        report.metrics = dict(self.registry.snapshot())
        report.metrics.update(self.system.telemetry()["metrics"])

        # Convergence digest: semantic membership + cloud content +
        # sampled group keys.  Pure state, no wall-clock anywhere.
        report.key_hashes = self.key_hashes()
        report.membership_digest = membership_digest(
            (group.group_id, self.system.admin.members(group.group_id))
            for group in self.groups)
        report.cloud_content_digest = cloud_digest(self.inner_store)
        objects = list(self.inner_store.adversary_view())
        report.cloud_objects = len(objects)
        report.cloud_bytes = sum(len(o.data) for o in objects)
        report.snapshot_horizon = self.inner_store.snapshot_horizon()
        digest = hashlib.sha256()
        digest.update(report.membership_digest.encode("ascii"))
        digest.update(report.cloud_content_digest.encode("ascii"))
        for gid in sorted(report.key_hashes):
            digest.update(gid.encode("utf-8"))
            digest.update(report.key_hashes[gid].encode("ascii"))
        report.convergence_digest = digest.hexdigest()

        # Remote-store runs: the server's own view of the run.
        (report.server_slo,
         report.request_log_tail) = server_observability(self.inner_store)
        return report

    def close(self) -> None:
        self.system.close()
        if self._second is not None:
            self._second.close()
        closer = getattr(self.inner_store, "close", None)
        if closer is not None:
            closer()


def run_scale(config: Optional[ScaleConfig] = None, **overrides
              ) -> ScaleReport:
    """Run the full scenario; returns the :class:`ScaleReport`.

    Keyword overrides build a config when none is given:
    ``run_scale(users=100_000, seed="7", faults=True)``.
    """
    if config is None:
        config = ScaleConfig(**overrides)
    elif overrides:
        raise ParameterError("pass either a config or overrides, not both")
    start = time.perf_counter()
    runner = ScaleRunner(config)
    try:
        runner.provision()
        runner.churn()
        runner.contention()
        runner.sync_storm()
        runner.check_revocations()
        report = runner.finish()
    finally:
        runner.close()
    report.wall_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Calibration: measure the cost model, re-derive the cutoff
# ---------------------------------------------------------------------------

@dataclass
class CalibrationReport:
    """Empirically measured partition cost model and the cutoff it
    implies, next to the paper's sqrt(n) rule."""

    seed: str
    rekey_fit: CoefficientFit
    decrypt_fit: CoefficientFit
    revocation_rate: float
    decrypt_rate: float
    curve: List[CutoffPoint] = field(default_factory=list)
    default_c_rekey: float = 0.0
    default_c_decrypt: float = 0.0
    span_breakdown: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "c_rekey": self.rekey_fit.coefficient,
            "c_rekey_fit": self.rekey_fit.describe(),
            "c_decrypt": self.decrypt_fit.coefficient,
            "c_decrypt_fit": self.decrypt_fit.describe(),
            "default_c_rekey": self.default_c_rekey,
            "default_c_decrypt": self.default_c_decrypt,
            "revocation_rate": self.revocation_rate,
            "decrypt_rate": self.decrypt_rate,
            "cutoff_curve": [
                {"n": p.group_size, "optimal_m": p.optimal,
                 "sqrt_n": p.sqrt_rule,
                 "optimal_over_sqrt": round(p.ratio, 3)}
                for p in self.curve
            ],
            "span_breakdown": self.span_breakdown,
            "wall_seconds": round(self.wall_seconds, 3),
        }


def run_calibration(seed: str = "scale-cal",
                    rekey_sizes: Sequence[int] = (256, 512, 1024, 2048),
                    rekey_capacity: int = 16,
                    decrypt_sizes: Sequence[int] = (8, 16, 32, 64),
                    repeats: int = 3,
                    revocation_rate: float = 0.35,
                    decrypt_rate: float = 2.0,
                    curve_sizes: Sequence[int] = CURVE_SIZES,
                    ) -> CalibrationReport:
    """Measure ``c_rekey`` and ``c_decrypt`` from live operations.

    * ``c_rekey``: revoke one member from groups of ``rekey_sizes``
      members at a fixed capacity — the revocation re-keys every
      partition, so wall time is linear in the partition count and the
      slope of the fit is the per-partition re-key cost.
    * ``c_decrypt``: a member decrypts its partition record at each of
      ``decrypt_sizes`` (one partition per group, a fresh client per
      measurement so the hint cache never amortizes the quadratic
      work); the slope against m² is the per-member² cost.

    Span aggregation (``repro.obs``) runs across the measurement so the
    report can attribute *where* the time goes, then the recommended
    cutoff curve is evaluated at ``curve_sizes`` (defaults 10⁴–10⁶, the
    paper's regime) for the given workload mix and compared against
    sqrt(n).
    """
    from repro import obs
    from repro.obs.export import aggregate_spans

    start = time.perf_counter()
    bound = max(max(decrypt_sizes), rekey_capacity) * 2
    system = quickstart_system(
        partition_capacity=rekey_capacity, params="toy64",
        rng=DeterministicRng(f"scale-cal:{seed}"),
        auto_repartition=False, system_bound=bound, workers=1,
    )
    tracer = obs.tracer()
    tracer.reset()
    obs.enable()
    rekey_samples: List[Tuple[float, float]] = []
    decrypt_samples: List[Tuple[float, float]] = []
    try:
        admin = system.admin
        for size in rekey_sizes:
            gid = f"cal-r{size}"
            admin.partition_capacity = rekey_capacity
            members = [f"r{size}-{i:06d}" for i in range(size)]
            admin.create_group(gid, members)
            partitions = len(admin.group_state(gid).table.partition_ids)
            for repeat in range(repeats):
                victim = members[repeat]
                t0 = time.perf_counter()
                admin.remove_user(gid, victim)
                rekey_samples.append(
                    (float(partitions), time.perf_counter() - t0))
                admin.add_user(gid, victim)     # restore for the next lap
        for m in decrypt_sizes:
            gid = f"cal-d{m}"
            admin.partition_capacity = m
            members = [f"d{m}-{i:04d}" for i in range(m)]
            admin.create_group(gid, members)
            state = admin.group_state(gid)
            record = next(iter(state.records.values()))
            for _ in range(repeats):
                client = system.make_client(gid, members[0])
                client.sync()
                t0 = time.perf_counter()
                client.decrypt_partition(record)
                decrypt_samples.append(
                    (float(m) ** 2, time.perf_counter() - t0))
    finally:
        obs.disable()
    spans = tracer.spans()
    aggregated = aggregate_spans(spans) if spans else {"names": {}}
    tracer.reset()
    system.close()

    rekey_fit = fit_linear_cost(rekey_samples)
    decrypt_fit = fit_linear_cost(decrypt_samples)
    defaults = AdaptivePolicy()
    policy = AdaptivePolicy.calibrated(
        rekey_fit, decrypt_fit, min_capacity=1, max_capacity=10 ** 9)
    breakdown = sorted(
        ({"name": name, "count": int(row["count"]),
          "self_s": round(row["self_s"], 6)}
         for name, row in aggregated["names"].items()),
        key=lambda row: -row["self_s"])[:12]
    report = CalibrationReport(
        seed=seed, rekey_fit=rekey_fit, decrypt_fit=decrypt_fit,
        revocation_rate=revocation_rate, decrypt_rate=decrypt_rate,
        curve=policy.cutoff_curve(list(curve_sizes), revocation_rate,
                                  decrypt_rate),
        default_c_rekey=defaults.c_rekey,
        default_c_decrypt=defaults.c_decrypt,
        span_breakdown=breakdown,
    )
    report.wall_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def add_scale_arguments(parser) -> None:
    """Scale-suite options."""
    parser.add_argument("--users", default="100000",
                        help="total users across all groups "
                             "(accepts 1e5 notation)")
    parser.add_argument("--seed", default="scale")
    parser.add_argument("--churn-ops", type=int, default=None,
                        help="membership operations in the churn phase "
                             "(default: derived from --users)")
    parser.add_argument("--duration", type=float, default=None,
                        help="advisory wall budget in seconds; shrinks "
                             "the churn-op count deterministically "
                             "(never truncates by wall clock)")
    parser.add_argument("--revocation-mix", type=float, default=0.35)
    parser.add_argument("--decrypt-mix", type=float, default=2.0)
    parser.add_argument("--sync-clients", type=int, default=32)
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel-engine workers (None: "
                             "REPRO_WORKERS, else serial); any count is "
                             "byte-identical")
    parser.add_argument("--faults", action="store_true",
                        help="inject the seeded store-fault profile "
                             "(outages/timeouts/latency spikes); the "
                             "convergence digest must not change")
    parser.add_argument("--store-url", default=None, metavar="URL",
                        help="run against a live repro serve endpoint "
                             "instead of the in-memory store")
    parser.add_argument("--compact-every", type=int, default=None,
                        help="auto-compact the store every N mutations")
    parser.add_argument("--calibrate", action="store_true",
                        help="measure c_rekey/c_decrypt and emit the "
                             "recommended cutoff curve instead of "
                             "running the traffic scenario")
    parser.add_argument("--json-out", default=None,
                        help="write the full report as JSON here")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="trace the run and write a Chrome "
                             "trace_event JSON here")
    parser.add_argument("--prom-out", default=None, metavar="PATH",
                        help="write the final metric snapshot as "
                             "Prometheus text exposition here")


def config_from_args(args) -> ScaleConfig:
    users = int(float(args.users))
    return ScaleConfig(
        users=users, seed=args.seed, churn_ops=args.churn_ops,
        duration=args.duration, revocation_mix=args.revocation_mix,
        decrypt_mix=args.decrypt_mix, sync_clients=args.sync_clients,
        workers=args.workers, faults=args.faults,
        store_url=args.store_url, compact_every=args.compact_every,
    )


def run_from_args(args) -> int:
    """Driver behind ``python -m repro.workloads.scale``: run the scenario
    (or calibration), print the JSON summary, and emit the requested
    artifacts."""
    import json
    import os

    from repro import obs
    from repro.obs.export import write_chrome_trace, write_prometheus

    trace_out = getattr(args, "trace_out", None)
    prom_out = getattr(args, "prom_out", None)
    for path in (args.json_out, trace_out, prom_out):
        if path and os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
    tracing = bool(trace_out)
    if tracing:
        obs.tracer().reset()
        obs.enable()
    try:
        if args.calibrate:
            report = run_calibration(
                seed=args.seed,
                revocation_rate=args.revocation_mix,
                decrypt_rate=args.decrypt_mix)
        else:
            report = run_scale(config_from_args(args))
    finally:
        if tracing:
            obs.disable()
    payload = report.summary()
    print(json.dumps(payload, indent=2))
    if not args.calibrate:
        print(f"convergence digest: {report.convergence_digest}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if trace_out:
        write_chrome_trace(obs.tracer().spans(), trace_out)
        obs.tracer().reset()
    if prom_out:
        metrics = getattr(report, "metrics", None) or {}
        write_prometheus(metrics, prom_out)
    if args.calibrate:
        return 0
    return 0 if report.converged else 1


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.scale",
        description="million-user scale suite: Zipf groups, bursty "
                    "churn, OCC contention, read-heavy sync — seeded "
                    "and byte-reproducible",
    )
    add_scale_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
