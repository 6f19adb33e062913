"""Chaos harness: replay a membership workload under injected faults.

The robustness counterpart of :mod:`repro.workloads.replay` and the
executable form of the chaos-equivalence contract:

    *a retried, recovered run converges to the byte-identical final
    cloud state of the fault-free run.*

:func:`run_chaos` builds two independent deployments seeded identically
(each with its own :class:`~repro.crypto.rng.DeterministicRng` and its
own :class:`~repro.cloud.FileCloudStore` directory), drives both through
the same deterministic membership trace, and injects a seeded
:class:`~repro.faults.FaultPlan` into one of them: transient store
outages and read timeouts (absorbed by the :class:`RetryPolicy` layers),
latency spikes (accounted), crashes at the named crash points, and full
enclave restarts.  After every applied revocation both runs verify the
revoked user is locked out; at the end the two stores' content digests,
the per-group memberships and the group keys are compared.

**Two deployment kinds, one harness.**  The trace is a list of
``(group_id, Operation)`` pairs (:func:`make_trace`; the single-group
profiles are its one-group case) and :class:`_Run` drives it over either
a single-enclave ``System`` on a :class:`~repro.cloud.FileCloudStore`
(crashes, store faults, enclave restarts, optional TCP serving) or a
``ShardedSystem(N)`` on an in-memory store, where *each shard is killed
in turn* mid-churn (plus any seeded ``shard.kill`` faults) and the
router respawns it on the next operation routed to it — sealed-MSK
restore, journal roll-forward, mutual re-attestation to a live peer
(itself under injected ``attest.fail`` faults, absorbed by the retry
layer).  The sharded run is compared against the fault-free
single-enclave run of the same trace and must end with every shard
alive and re-attested.

**The crash-recovery driver.**  A :class:`~repro.errors.CrashError`
models process death, so nothing in the library catches it.  The driver
(:func:`drive`, which the scale suite shares) plays the part of the
freshly restarted process:

1. re-open the :class:`FileCloudStore` on the same directory — its
   journal roll-forward resolves any torn commit to "applied" or "never
   happened";
2. drop and reload the group's administrative state from the cloud;
3. decide whether the crashed operation *landed* (for an add: the user
   is in the reloaded table; for a remove: absent) — a crash after the
   commit point must not be redone;
4. if it did not land, rewind the deployment RNG to the snapshot taken
   at the operation boundary and redo it, consuming the exact same
   random bytes the fault-free run consumed.

Step 4 is why byte-identity survives recovery: an operation either runs
to completion exactly once on the advanced stream, or is replayed from
the snapshot until it does.

Content digests deliberately exclude object *versions*: a redone
conditional put consumes extra version numbers, and versions are
transport-layer concurrency tokens, not group state (what an adversary
or a client derives keys from is the bytes).  They also exclude the
``sealed-gk`` blob: it is opaque to everyone but the enclave, and the
monotonic seal counter encrypted inside it counts every seal the
*platform* performed — including attempts a crash aborted before their
cloud commit — so no faithful recovery can reproduce its exact bytes.
The group key it protects is compared directly instead: both runs must
yield the byte-identical group key at a surviving member's client,
which is the stronger, semantic form of the check.

**Compaction under chaos.**  With ``compact_every=K`` both deployments
run their :class:`FileCloudStore` with automatic snapshot compaction
every ``K`` mutations, so compactions land at whatever points the trace
dictates — including inside an operation that a fault plan then crashes.
A crash at ``cloud.compact.journaled`` or
``cloud.compact.snapshot_written`` leaves a compaction journal behind;
the reopen in step 1 rolls it forward.  After the trace, both runs
perform a *cold start*: reopen the store (faults off), rebuild the
administrator's group state from whatever snapshot + event suffix
survived, and sync a brand-new client from sequence zero.  The rebuilt
state digests and the cold clients' group keys must match across the
reference and chaos runs, extending byte-for-byte convergence to the
compacted bootstrap path.

Run from the command line (the rows of the CI ``chaos-smoke`` matrix)::

    python -m repro.workloads.chaos --profile store --seed 7
    python -m repro.workloads.chaos --profile full  --seed 7 \
        --compact-every 3
    python -m repro.workloads.chaos --profile shard --seed 7 --shards 2
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cloud import FileCloudStore
from repro.crypto.rng import DeterministicRng
from repro.deploy import quickstart_system
from repro.errors import (
    ConflictError,
    CrashError,
    NotFoundError,
    ParameterError,
    ReproError,
    RevokedError,
    StorageError,
    UnavailableError,
)
from repro.faults import FaultInjector, FaultPlan, FaultyCloudStore, install
from repro.shard import ShardedSystem
from repro.workloads.synthetic import OP_ADD, OP_REMOVE, Operation


# ---------------------------------------------------------------------------
# Convergence primitives (shared with the scale suite)
# ---------------------------------------------------------------------------

def cloud_digest(store) -> str:
    """Content digest of a store: SHA-256 over the sorted ``(path,
    data)`` pairs.  Versions and sealed-key blobs are excluded (see the
    module docstring); the group key sealed inside the latter is checked
    directly via :func:`group_key_hash`."""
    digest = hashlib.sha256()
    for obj in sorted(store.adversary_view(), key=lambda o: o.path):
        if obj.path.endswith("/sealed-gk"):
            continue
        digest.update(obj.path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256(obj.data).digest())
        digest.update(b"\x01")
    return digest.hexdigest()


def membership_digest(rosters: Iterable[Tuple[str, Iterable[str]]]) -> str:
    """SHA-256 over ``(group id, members)`` pairs, members sorted — the
    semantic state two equal-seed runs must agree on."""
    digest = hashlib.sha256()
    for group_id, members in rosters:
        digest.update(group_id.encode("utf-8") + b"\x00")
        for member in sorted(members):
            digest.update(member.encode("utf-8") + b"\x01")
    return digest.hexdigest()


def group_key_hash(client) -> str:
    """Hash of the group key ``client`` derives after a sync — the
    semantic stand-in for comparing sealed-gk bytes (see
    :func:`cloud_digest`)."""
    client.sync()
    return hashlib.sha256(client.current_group_key()).hexdigest()


def locked_out(client) -> bool:
    """The revocation invariant: after a remove (and whatever crash
    recovery it took), the revoked user's client must not reach a group
    key."""
    client.sync()
    try:
        client.current_group_key()
    except RevokedError:
        return True
    return False


def reload_group(admin, group_id: str):
    """Drop one group's cached administrative state and rebuild it from
    the cloud.  Returns ``None`` when the group has no metadata there (a
    crashed creation that never landed)."""
    admin.cache.drop(group_id)
    try:
        return admin.load_group_from_cloud(group_id)
    except NotFoundError:
        return None


def server_observability(store) -> Tuple[dict, list]:
    """A served store's rolling SLO windows and request-log tail, fetched
    over the wire via ``ops.stats``; empty for an in-process store or a
    server without the ops surface."""
    if "ops" not in getattr(store, "server_features", ()):
        return {}, []
    try:
        stats = store.server_stats()
    except ReproError:
        return {}, []
    return stats.get("slo", {}), stats.get("request_log", {}).get("tail", [])


def drive(rng, action: Callable[[], object], landed: Callable[[], bool],
          recover: Callable[[], None], remote: bool = False) -> int:
    """The crash-recovery driver (module docstring, steps 1–4): run one
    mutation to completion across process deaths.  ``recover`` plays the
    restarted process, ``landed`` inspects the reloaded state; an
    operation that landed advanced the RNG stream exactly once, same as
    the fault-free run, and is neither rewound nor redone.  Returns the
    number of crashes recovered.

    An :class:`UnavailableError` — a retry budget exhausted mid-plan,
    rare with the default policies — is treated like a crash but not
    counted as one.  With ``remote`` any other :class:`StorageError` is a
    crash too: an injected crash killed the *server* mid-request, so the
    client saw the connection drop with the outcome unknown, and the only
    sound resolution is restart, reload, inspect.
    """
    crash_like = ((CrashError, StorageError) if remote
                  else (CrashError, UnavailableError))
    snapshot = rng.getstate()
    crashes = 0
    while True:
        try:
            action()
            return crashes
        except ConflictError:
            raise
        except crash_like as exc:
            if not isinstance(exc, UnavailableError):
                crashes += 1
            recover()
            if landed():
                return crashes
            rng.setstate(snapshot)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` comparison.  ``reference_*`` and
    ``chaos_*`` fields pair up (see :meth:`_Run.finish`); the cold-start
    probe runs on both deployment kinds, crash/restart counters stay zero
    on a sharded run and kill/respawn counters on a single-enclave one."""

    seed: str
    plan: FaultPlan
    #: Enclave count of the chaos deployment; ``None`` for the
    #: single-enclave kind on a file-backed store.
    nshards: Optional[int] = None
    groups: List[str] = field(default_factory=list)
    ops_total: int = 0
    ops_applied: int = 0
    crashes_recovered: int = 0
    enclave_restarts: int = 0
    scheduled_kills: int = 0
    injected_kills: int = 0
    respawns: int = 0
    attest_faults: int = 0
    revocation_checks: int = 0
    revocation_failures: int = 0
    reference_digest: str = ""
    chaos_digest: str = ""
    reference_membership_digest: str = ""
    chaos_membership_digest: str = ""
    reference_key_hashes: Dict[str, str] = field(default_factory=dict)
    chaos_key_hashes: Dict[str, str] = field(default_factory=dict)
    reference_cold_digest: str = ""
    chaos_cold_digest: str = ""
    reference_cold_key_hashes: Dict[str, str] = field(default_factory=dict)
    chaos_cold_key_hashes: Dict[str, str] = field(default_factory=dict)
    reference_horizon: int = 0
    chaos_horizon: int = 0
    fault_history: List[Tuple[str, str]] = field(default_factory=list)
    retry_backoff_ms: float = 0.0
    traced: bool = False
    #: Server-side view of the chaos run (network mode only): per-method
    #: SLO windows from the final server incarnation and the tail of the
    #: request log every incarnation shared.
    server_slo: dict = field(default_factory=dict)
    request_log_tail: List[dict] = field(default_factory=list)
    #: Sharded runs: the deployment's closing health probe.
    final_health: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """Byte-identical final cloud state, identical per-group
        membership, the byte-identical group key at a surviving member
        of every group (live and after a cold start from whatever
        snapshot survived), identical cold-started administrative state,
        every revoked user locked out whenever checked, and — on a
        sharded run — every shard back up (alive + re-attested)."""
        return (self.reference_digest == self.chaos_digest
                and (self.reference_membership_digest
                     == self.chaos_membership_digest)
                and self.reference_cold_digest == self.chaos_cold_digest
                and (self.reference_key_hashes == self.chaos_key_hashes
                     == self.reference_cold_key_hashes
                     == self.chaos_cold_key_hashes)
                and self.revocation_failures == 0
                and (self.nshards is None
                     or self.final_health.get("status") == "ok"))

    def summary(self) -> dict:
        out = {name: value for name, value in vars(self).items()
               if name not in ("plan", "fault_history")}
        out.update(
            faults_injected=len(self.fault_history),
            retry_backoff_ms=round(self.retry_backoff_ms, 3),
            request_log_tail=self.request_log_tail[-8:],
            converged=self.converged,
        )
        return out


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def make_membership_trace(ops: int, pool: int, initial: int,
                          seed: str) -> Tuple[List[str], List[Operation]]:
    """Deterministic membership trace over a ``u0..u{pool-1}`` user pool.

    Returns ``(initial_members, operations)``; every operation is valid
    against the membership state it will find (no skipped ops, so the
    applied-op count is itself deterministic).  The group never drains
    below one member.
    """
    rng = DeterministicRng(f"chaos-trace:{seed}")
    users = [f"u{i}" for i in range(pool)]
    members = set(users[:initial])
    trace: List[Operation] = []
    for index in range(ops):
        absent = sorted(set(users) - members)
        present = sorted(members)
        # ~60/40 add/remove mix, constrained by what's possible.
        want_add = rng.randint_below(10) < 6
        if (want_add or len(present) <= 1) and absent:
            user = absent[rng.randint_below(len(absent))]
            members.add(user)
            trace.append(Operation(OP_ADD, user, float(index)))
        else:
            user = present[rng.randint_below(len(present))]
            members.remove(user)
            trace.append(Operation(OP_REMOVE, user, float(index)))
    return users[:initial], trace


def make_trace(groups: Optional[int], ops: int, pool: int, initial: int,
               seed: str) -> Tuple[Dict[str, List[str]], Dict[str, List[str]],
                                   List[Tuple[str, Operation]]]:
    """The ``[(group_id, Operation)]`` trace a run is driven through:
    one membership trace of ``ops`` operations per group, interleaved
    round-robin.  ``groups=None`` is the one-group case — a single group
    ``chaos`` over the bare ``u<i>`` pool; otherwise groups ``g<k>`` with
    identities prefixed ``g<k>.u<i>`` so user pools are disjoint.
    Returns ``(initial_members_by_group, user_pool_by_group, trace)``."""
    if groups is None:
        naming = {"chaos": ("", seed)}
    else:
        naming = {f"g{k}": (f"g{k}.", f"{seed}:g{k}") for k in range(groups)}
    initials: Dict[str, List[str]] = {}
    pools: Dict[str, List[str]] = {}
    per_group: List[List[Tuple[str, Operation]]] = []
    for gid, (prefix, trace_seed) in naming.items():
        members, trace = make_membership_trace(ops, pool, initial, trace_seed)
        initials[gid] = [prefix + user for user in members]
        pools[gid] = [f"{prefix}u{i}" for i in range(pool)]
        per_group.append([
            (gid, Operation(op.kind, prefix + op.user, op.timestamp))
            for op in trace
        ])
    return initials, pools, [pair for step in zip(*per_group)
                             for pair in step]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

class _Run:
    """One deployment (reference or faulty) driven through a trace.

    Two deployment kinds.  ``nshards=None``: a single-enclave ``System``
    on a :class:`FileCloudStore` under ``root`` (optionally served over
    TCP), which can crash, be reopened and have its enclave restarted.
    Otherwise: a ``ShardedSystem(nshards)`` on an in-memory store whose
    shards are killed at operation boundaries.
    """

    def __init__(self, seed: str, capacity: int, nshards: Optional[int],
                 root: str, injector: Optional[FaultInjector],
                 workers: Optional[int] = 1,
                 compact_every: Optional[int] = None,
                 remote: bool = False) -> None:
        self.root = root
        self.injector = injector
        self.compact_every = compact_every
        self.remote = remote
        self.sharded = nshards is not None
        self._server = None
        self._remote_store = None
        # One in-memory request log shared across every server
        # incarnation (crash recovery restarts the server): its tail
        # shows the last requests spanning the restarts.
        self.request_log = None
        if remote:
            from repro.net import RequestLog

            self.request_log = RequestLog()
        if self.sharded:
            self.system = ShardedSystem(
                nshards=nshards, partition_capacity=capacity,
                params="toy64", seed=f"shard-chaos:{seed}", workers=workers,
            )
            self.rng = self.system.rng
            self.inner = self.system.cloud
            #: Routed group operations (each in its group's rng scope).
            self.group_ops = self.system
            self.admins = [shard.admin for shard in self.system.shards]
        else:
            self.rng = DeterministicRng(f"chaos-system:{seed}")
            self.inner = FileCloudStore(root, compact_every=compact_every)
            # auto_repartition stays off so a crashed remove never nests
            # a second (repartition) plan inside its own recovery window.
            self.system = quickstart_system(
                partition_capacity=capacity, params="toy64", rng=self.rng,
                cloud=self._serving_store(), auto_repartition=False,
                workers=workers,
            )
            self.group_ops = self.system.admin
            self.admins = [self.system.admin]
        self.groups: List[str] = []
        self.clients = {}
        self.ops_applied = 0
        self.crashes_recovered = 0
        self.enclave_restarts = 0
        self.scheduled_kills = 0
        self.injected_kills = 0
        self.revocation_checks = 0
        self.revocation_failures = 0
        self.respawns = 0
        self.final_health: dict = {}
        self.server_view: Tuple[dict, list] = ({}, [])

    # -- plumbing --------------------------------------------------------------

    def _serving_store(self):
        """The store the deployment talks to: the ``FileCloudStore``
        itself, or — in network mode — a fresh ``RemoteCloudStore``
        connected to a :class:`~repro.net.ServerThread` hosting it (an
        injected crash then genuinely kills the serving process); either
        one behind the fault injector when there is one."""
        served = self.inner
        if self.remote:
            from repro.net import RemoteCloudStore, ServerThread

            self._server = ServerThread(self.inner,
                                        request_log=self.request_log)
            url = self._server.start()
            served = self._remote_store = RemoteCloudStore(url)
        if self.injector is not None:
            return FaultyCloudStore(served, self.injector)
        return served

    def _stop_server(self) -> None:
        if self._remote_store is not None:
            self._remote_store.close()
            self._remote_store = None
        if self._server is not None:
            self._server.stop()
            self._server = None

    def _reopen_store(self) -> None:
        """The restarted process re-opens the store directory: the
        journal roll-forward runs here.  In network mode the dead
        server is torn down and a fresh one is started on the reopened
        store — the full restart a real deployment would perform.  (A
        sharded run's in-memory store outlives its enclaves: nothing to
        reopen.)"""
        if self.sharded:
            return
        self._stop_server()
        self.inner = FileCloudStore(self.root,
                                    compact_every=self.compact_every)
        self.system.rebind_store(self._serving_store())

    def _admin(self, gid: str):
        """The administrator owning ``gid``."""
        return self.admins[self.system.owner(gid) if self.sharded else 0]

    def _state(self, gid: str):
        """``gid``'s cached administrative state (``None``: not loaded)."""
        return self._admin(gid).cache.get(gid)

    def _recover(self, gid: str) -> None:
        self._reopen_store()
        reload_group(self._admin(gid), gid)

    def _drive(self, gid: str, action, landed) -> None:
        self.crashes_recovered += drive(
            self.rng, action, landed, lambda: self._recover(gid),
            remote=self.remote)

    # -- workload --------------------------------------------------------------

    def bootstrap(self, initials: Dict[str, List[str]],
                  pools: Dict[str, List[str]]) -> None:
        self.groups = sorted(initials)
        create = self.group_ops.create_group
        for gid in self.groups:
            self._drive(gid, lambda gid=gid: create(gid, initials[gid]),
                        lambda gid=gid: self._state(gid) is not None)
        # Provision every pool user's key and client up front, in both
        # runs identically: provisioning over the attested channel draws
        # from the deployment RNG, so doing it lazily (e.g. only when a
        # revocation check needs a client) would desynchronise the
        # reference and chaos streams.
        for gid in self.groups:
            for user in pools[gid]:
                self.clients[gid, user] = self.system.make_client(gid, user)

    def take_process_faults(self, victim: Optional[int]) -> None:
        """Process-level faults landing at an operation boundary: an
        injector-drawn enclave restart, or — sharded — the scheduled
        ``victim`` shard's death plus any seeded ``shard.kill`` the plan
        draws.  The router respawns a dead shard on the next operation
        routed to it."""
        if not self.sharded:
            if self.injector.take_enclave_restart():
                self.system.restart_enclave()
                self.enclave_restarts += 1
            return
        if victim is not None:
            self.system.kill_shard(victim)
            self.scheduled_kills += 1
        extra = self.injector.take_shard_kill(self.system.nshards)
        if extra is not None and self.system.shards[extra].alive:
            self.system.kill_shard(extra)
            self.injected_kills += 1

    def apply(self, gid: str, op: Operation) -> None:
        adding = op.kind == OP_ADD
        act = (self.group_ops.add_user if adding
               else self.group_ops.remove_user)

        def landed() -> bool:
            state = self._state(gid)
            return state is not None and (op.user in state.table) == adding

        self._drive(gid, lambda: act(gid, op.user), landed)
        if not adding:
            self.revocation_checks += 1
            if not locked_out(self.clients[gid, op.user]):
                self.revocation_failures += 1
        self.ops_applied += 1

    def play(self, initials, pools, trace) -> None:
        self.bootstrap(initials, pools)
        kill_at = {}
        if self.sharded:
            # Shard i dies just before operation (i+1)*len/(N+1): evenly
            # spaced, never at the very start or end, deterministic — so
            # every shard dies at least once with churn outstanding.
            nshards = self.system.nshards
            kill_at = {((index + 1) * len(trace)) // (nshards + 1): index
                       for index in range(nshards)}
        for position, (gid, op) in enumerate(trace):
            if self.injector is not None:
                self.take_process_faults(kill_at.get(position))
            self.apply(gid, op)
        if self.sharded:
            # Any shard still down when the trace ends is respawned
            # explicitly, so the final health probe must find every
            # shard alive and re-attested.
            for shard in self.system.shards:
                if not shard.alive:
                    self.system.respawn_shard(shard.index)

    # -- the verdict -----------------------------------------------------------

    def _members(self, gid: str) -> List[str]:
        return sorted(self._state(gid).table.all_members())

    def cold_start(self) -> Tuple[str, Dict[str, str]]:
        """Cold-start equivalence probe (faults off): reopen the store —
        rolling forward any surviving journal — rebuild the
        administrator's group state from whatever snapshot + event
        suffix compaction left behind, and sync a brand-new client of
        every group from sequence zero.  Returns ``(state_digest,
        key_hash_by_group)``.

        The state digest covers the epoch, the partition-id cursor and
        every partition record's signed payload bytes, so it pins
        exactly what a restarted administrator reconstructs.  The fresh
        client reuses the cached provisioned user key (``make_client``
        draws no deployment randomness for an already-provisioned user),
        keeping the reference and chaos RNG streams aligned.
        """
        self.injector = None
        self._reopen_store()
        digest = hashlib.sha256()
        hashes = {}
        for gid in self.groups:
            state = reload_group(self._admin(gid), gid)
            digest.update(f"epoch:{state.epoch}\x00".encode("utf-8"))
            digest.update(f"next:{state.table.next_partition_id}\x00"
                          .encode("utf-8"))
            for pid in sorted(state.records):
                digest.update(f"p{pid}\x00".encode("utf-8"))
                digest.update(hashlib.sha256(
                    state.records[pid].payload()).digest())
            hashes[gid] = group_key_hash(
                self.system.make_client(gid, self._members(gid)[0]))
        return digest.hexdigest(), hashes

    def finish(self) -> dict:
        """Digest the final state and tear the deployment down.  The
        keys are :class:`ChaosReport` field names less their
        ``reference_`` / ``chaos_`` prefix."""
        verdict = {
            "membership_digest": membership_digest(
                (gid, self._members(gid)) for gid in self.groups),
            # At a deterministically chosen surviving member per group.
            "key_hashes": {
                gid: group_key_hash(self.clients[gid, self._members(gid)[0]])
                for gid in self.groups},
        }
        verdict["cold_digest"], verdict["cold_key_hashes"] = self.cold_start()
        verdict["horizon"] = self.inner.snapshot_horizon()
        self.server_view = server_observability(self._remote_store)
        if self.sharded:
            self.respawns = sum(s.respawns for s in self.system.shards)
            self.final_health = self.system.health()
        self.close()
        verdict["digest"] = cloud_digest(self.inner)
        return verdict

    def close(self) -> None:
        self.system.close()
        self._stop_server()


def run_chaos(plan: Optional[FaultPlan] = None, *, ops: int = 30,
              pool: int = 12, initial: int = 5, capacity: int = 4,
              seed: str = "chaos", workers: Optional[int] = 1,
              compact_every: Optional[int] = None,
              remote: bool = False, traced: bool = False,
              nshards: Optional[int] = None,
              groups: Optional[int] = None) -> ChaosReport:
    """Replay one deterministic membership trace twice — fault-free on a
    single enclave, and under ``plan`` — and compare the final cloud
    bytes, memberships and group keys.

    ``seed`` derives everything: the trace, both deployments' RNG
    streams, and (by default) the fault schedule, so the entire
    comparison is replayable from one value.  ``groups`` interleaves
    that many per-group traces of ``ops`` operations each (``None``: the
    one group ``chaos``; see :func:`make_trace`).

    ``nshards`` selects the deployment kind (module docstring): ``None``
    runs both sides on file-backed stores (default plan
    :meth:`FaultPlan.store_faults`); otherwise the chaos side is a
    ``ShardedSystem(nshards)`` (default plan
    :meth:`FaultPlan.shard_chaos`) and the reference a
    ``ShardedSystem(1)``, both on in-memory stores — which is why
    ``compact_every`` and ``remote`` do not apply to it.

    ``compact_every`` (when set) enables automatic snapshot compaction
    on both stores every that-many mutations, so the cold starts the
    convergence verdict always compares boot from two (differently)
    compacted stores.

    ``remote`` puts the *chaos* deployment's store behind a real
    :class:`~repro.net.StoreServer` and talks to it through a
    :class:`~repro.net.RemoteCloudStore`: injected crashes then kill
    the serving process mid-request (clients see dropped connections
    with unknown outcomes, not tidy exceptions) and recovery includes a
    server restart.  The reference stays in-process, so convergence is
    asserted *across the network boundary* — the remote chaos run must
    land on the byte-identical cloud state of the in-process fault-free
    run.

    ``traced`` (meaningful with ``remote``) runs the chaos side with
    distributed tracing enabled — a trace context on every request,
    server spans shipped back and stitched client-side — while the
    reference stays untraced.  The unchanged convergence verdict then
    doubles as proof that tracing never perturbs store state, even
    under faults and crash recovery.
    """
    from repro import obs

    sharded = nshards is not None
    if sharded and (remote or compact_every is not None):
        raise ParameterError(
            "a sharded run keeps its store in memory: remote and "
            "compact_every do not apply")
    if plan is None:
        plan = (FaultPlan.shard_chaos(seed, nshards=nshards) if sharded
                else FaultPlan.store_faults(seed))
    initials, pools, trace = make_trace(groups, ops, pool, initial, seed)
    report = ChaosReport(seed=seed, plan=plan, nshards=nshards,
                         groups=sorted(initials), ops_total=len(trace),
                         traced=traced)
    injector = FaultInjector(plan)
    runs: List[_Run] = []
    with tempfile.TemporaryDirectory(prefix="chaos-") as root:
        try:
            # Reference: same trace, one enclave, no injector.
            install(None)
            reference = _Run(seed, capacity, 1 if sharded else None,
                             os.path.join(root, "reference"), None,
                             workers=workers, compact_every=compact_every)
            runs.append(reference)
            reference.play(initials, pools, trace)
            sides = {"reference": reference.finish()}

            # Chaos: identical seeds, faults on.
            install(injector)
            if traced:
                obs.tracer().reset()
                obs.enable()
            try:
                chaos = _Run(seed, capacity, nshards,
                             os.path.join(root, "chaos"), injector,
                             workers=workers, compact_every=compact_every,
                             remote=remote)
                runs.append(chaos)
                chaos.play(initials, pools, trace)
            finally:
                # The trace is done: the final state checks below verify
                # convergence and should not themselves be perturbed.
                install(None)
                if traced:
                    obs.disable()
                    obs.tracer().reset()
            sides["chaos"] = chaos.finish()
        finally:
            # Also on a failed run: leave no enclave worker pool, server
            # thread or client socket behind in the calling process.
            for run in runs:
                run.close()
    for side, verdict in sides.items():
        for name, value in verdict.items():
            setattr(report, f"{side}_{name}", value)
    report.revocation_checks = sum(r.revocation_checks for r in runs)
    report.revocation_failures = sum(r.revocation_failures for r in runs)
    report.ops_applied = chaos.ops_applied
    report.crashes_recovered = chaos.crashes_recovered
    report.enclave_restarts = chaos.enclave_restarts
    report.scheduled_kills = chaos.scheduled_kills
    report.injected_kills = chaos.injected_kills
    report.respawns = chaos.respawns
    report.final_health = chaos.final_health
    report.server_slo, report.request_log_tail = chaos.server_view
    report.fault_history = injector.history()
    report.attest_faults = sum(
        1 for kind, _ in report.fault_history if kind == "attest.fail")
    report.retry_backoff_ms = (
        sum(admin.retry.slept_ms for admin in chaos.admins)
        + sum(c.retry.slept_ms for c in chaos.clients.values()))
    return report


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.chaos",
        description="Chaos-equivalence smoke: replay a workload under a "
                    "seeded fault schedule and diff the final cloud bytes "
                    "against a fault-free run.",
    )
    parser.add_argument("--profile", choices=("store", "full", "shard"),
                        default="store",
                        help="store: transient store faults only; "
                             "full: adds crashes and enclave restarts; "
                             "shard: multi-enclave deployment with every "
                             "shard killed in turn mid-churn")
    parser.add_argument("--seed", default="chaos-ci")
    parser.add_argument("--ops", type=int, default=30)
    parser.add_argument("--pool", type=int, default=12)
    parser.add_argument("--capacity", type=int, default=4)
    parser.add_argument("--shards", type=int, default=None,
                        help="with --profile shard: enclave instance "
                             "count of the chaos deployment (default 2)")
    parser.add_argument("--groups", type=int, default=None,
                        help="with --profile shard: interleaved group "
                             "count (default 3)")
    parser.add_argument("--compact-every", type=int, default=None,
                        help="enable automatic snapshot compaction every "
                             "N mutations on both stores and verify "
                             "cold-start equivalence across them")
    parser.add_argument("--network", action="store_true",
                        help="serve the chaos run's store over a real "
                             "TCP StoreServer (repro.net) and converge "
                             "across the network boundary")
    parser.add_argument("--trace", action="store_true",
                        help="with --network: run the chaos side with "
                             "distributed tracing enabled, so the "
                             "convergence verdict also proves tracing "
                             "never perturbs store state")
    args = parser.parse_args(argv)
    sharded = args.profile == "shard"
    if args.trace and not args.network:
        parser.error("--trace needs --network")
    if not sharded and (args.shards is not None or args.groups is not None):
        parser.error("--shards/--groups need --profile shard")
    if sharded and (args.network or args.compact_every is not None):
        parser.error("--profile shard keeps its store in memory: "
                     "--network/--compact-every do not apply")

    sizes = {"ops": args.ops}
    if sharded:
        nshards, groups = args.shards or 2, args.groups or 3
        plan = FaultPlan.shard_chaos(args.seed, nshards=nshards)
        # --ops is the whole trace; each group gets an equal share.
        sizes = {"ops": max(4, args.ops // groups), "initial": 4,
                 "nshards": nshards, "groups": groups}
    elif args.profile == "store":
        plan = FaultPlan.store_faults(args.seed)
    else:
        plan = FaultPlan.full_chaos(args.seed)
    report = run_chaos(plan, pool=args.pool, capacity=args.capacity,
                       seed=args.seed, compact_every=args.compact_every,
                       remote=args.network, traced=args.trace, **sizes)
    print(json.dumps(report.summary(), indent=2))
    return 0 if report.converged else 1


if __name__ == "__main__":
    raise SystemExit(main())
