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
revoked user is locked out; at the end the two stores' content digests
are compared.

**The crash-recovery driver.**  A :class:`~repro.errors.CrashError`
models process death, so nothing in the library catches it.  The driver
plays the part of the freshly restarted process:

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

Run from the command line (the CI chaos-smoke and compaction-smoke
jobs)::

    python -m repro.workloads.chaos --profile store --seed 7
    python -m repro.workloads.chaos --profile full  --seed 7 \
        --compact-every 3
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cloud import FileCloudStore
from repro.crypto.rng import DeterministicRng
from repro.deploy import quickstart_system
from repro.errors import CrashError, NotFoundError, RevokedError, UnavailableError
from repro.faults import FaultInjector, FaultPlan, FaultyCloudStore, install
from repro.shard import ShardedSystem
from repro.workloads.synthetic import OP_ADD, OP_REMOVE, Operation


def cloud_digest(store) -> str:
    """Content digest of a store: SHA-256 over the sorted ``(path,
    data)`` pairs.  Versions and sealed-key blobs are excluded (see the
    module docstring); the group key sealed inside the latter is checked
    directly via :meth:`_ChaosRun.group_key_hash`."""
    digest = hashlib.sha256()
    for obj in sorted(store.adversary_view(), key=lambda o: o.path):
        if obj.path.endswith("/sealed-gk"):
            continue
        digest.update(obj.path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256(obj.data).digest())
        digest.update(b"\x01")
    return digest.hexdigest()


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` comparison."""

    seed: str
    plan: FaultPlan
    ops_total: int = 0
    ops_applied: int = 0
    crashes_recovered: int = 0
    enclave_restarts: int = 0
    revocation_checks: int = 0
    revocation_failures: int = 0
    reference_digest: str = ""
    chaos_digest: str = ""
    reference_key_hash: str = ""
    chaos_key_hash: str = ""
    reference_cold_digest: str = ""
    chaos_cold_digest: str = ""
    reference_cold_key_hash: str = ""
    chaos_cold_key_hash: str = ""
    reference_horizon: int = 0
    chaos_horizon: int = 0
    fault_history: List[Tuple[str, str]] = field(default_factory=list)
    retry_backoff_ms: float = 0.0
    traced: bool = False
    server_slo: dict = field(default_factory=dict)
    request_log_tail: List[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """Byte-identical final cloud state, the byte-identical group key
        at a surviving member (live and after a cold start from whatever
        snapshot survived), identical cold-started administrative state,
        and every revoked user locked out whenever checked."""
        key_hashes = {self.reference_key_hash, self.chaos_key_hash,
                      self.reference_cold_key_hash,
                      self.chaos_cold_key_hash}
        return (self.reference_digest == self.chaos_digest
                and self.reference_cold_digest == self.chaos_cold_digest
                and len(key_hashes) == 1
                and self.revocation_failures == 0)

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "ops_total": self.ops_total,
            "ops_applied": self.ops_applied,
            "faults_injected": len(self.fault_history),
            "crashes_recovered": self.crashes_recovered,
            "enclave_restarts": self.enclave_restarts,
            "revocation_checks": self.revocation_checks,
            "revocation_failures": self.revocation_failures,
            "retry_backoff_ms": round(self.retry_backoff_ms, 3),
            "reference_digest": self.reference_digest,
            "chaos_digest": self.chaos_digest,
            "reference_key_hash": self.reference_key_hash,
            "chaos_key_hash": self.chaos_key_hash,
            "reference_cold_digest": self.reference_cold_digest,
            "chaos_cold_digest": self.chaos_cold_digest,
            "reference_cold_key_hash": self.reference_cold_key_hash,
            "chaos_cold_key_hash": self.chaos_cold_key_hash,
            "reference_horizon": self.reference_horizon,
            "chaos_horizon": self.chaos_horizon,
            "converged": self.converged,
            "traced": self.traced,
            # Server-side view of the chaos run (network mode only):
            # per-method SLO windows from the final server incarnation
            # and the tail of the request log every incarnation shared.
            "server_slo": self.server_slo,
            "request_log_tail": self.request_log_tail[-8:],
        }


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


class _ChaosRun:
    """One deployment (reference or faulty) driven through a trace."""

    GROUP = "chaos"

    def __init__(self, root: str, seed: str, capacity: int, pool: int,
                 injector: Optional[FaultInjector],
                 workers: Optional[int] = 1,
                 compact_every: Optional[int] = None,
                 remote: bool = False) -> None:
        self.root = root
        self.injector = injector
        self.compact_every = compact_every
        self.remote = remote
        self._server = None
        self._remote_store = None
        # One in-memory request log shared across every server
        # incarnation (crash recovery restarts the server): its tail
        # shows the last requests spanning the restarts.
        self.request_log = None
        if remote:
            from repro.net import RequestLog

            self.request_log = RequestLog()
        self.rng = DeterministicRng(f"chaos-system:{seed}")
        self.inner = FileCloudStore(root, compact_every=compact_every)
        # auto_repartition stays off so a crashed remove never nests a
        # second (repartition) plan inside its own recovery window.
        self.system = quickstart_system(
            partition_capacity=capacity, params="toy64", rng=self.rng,
            cloud=self._serving_store(), auto_repartition=False,
            workers=workers,
        )
        self.clients = {}
        self.crashes_recovered = 0
        self.enclave_restarts = 0
        self.revocation_checks = 0
        self.revocation_failures = 0

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
        store — the full restart a real deployment would perform."""
        self._stop_server()
        self.inner = FileCloudStore(self.root,
                                    compact_every=self.compact_every)
        self.system.rebind_store(self._serving_store())

    # -- the crash-recovery driver --------------------------------------------

    def _recover(self) -> None:
        self._reopen_store()
        admin = self.system.admin
        admin.cache.drop(self.GROUP)
        try:
            admin.load_group_from_cloud(self.GROUP)
        except NotFoundError:
            pass  # the crashed op was the group creation; nothing landed

    def _applied(self, op: Operation) -> bool:
        state = self.system.admin.cache.get(self.GROUP)
        if state is None:
            return False
        if op.kind == OP_ADD:
            return op.user in state.table
        return op.user not in state.table

    def _drive(self, action, applied_check) -> bool:
        """Run one mutation to completion across crashes.  Returns True
        if it was redone at least once after landing-free crashes."""
        from repro.errors import ConflictError, StorageError

        snapshot = self.rng.getstate()
        while True:
            try:
                action()
                return True
            except CrashError:
                self.crashes_recovered += 1
                self._recover()
                if applied_check():
                    # Landed before the crash: the RNG stream advanced
                    # exactly once, same as the fault-free run — do not
                    # rewind, do not redo.
                    return True
                self.rng.setstate(snapshot)
            except UnavailableError:
                # Retry budget exhausted mid-plan (rare with default
                # policies): treat like a crash — reload and, if the op
                # did not land, rewind and redo.
                self._recover()
                if applied_check():
                    return True
                self.rng.setstate(snapshot)
            except ConflictError:
                raise
            except StorageError:
                # Network mode: an injected crash killed the *server*
                # mid-request, so the client saw the connection drop
                # with the outcome unknown.  Resolve the ambiguity the
                # only sound way — restart, reload, inspect.
                if not self.remote:
                    raise
                self.crashes_recovered += 1
                self._recover()
                if applied_check():
                    return True
                self.rng.setstate(snapshot)

    # -- workload --------------------------------------------------------------

    def bootstrap(self, initial_members: List[str], pool: int) -> None:
        admin = self.system.admin

        def create() -> None:
            if admin.cache.get(self.GROUP) is None:
                admin.create_group(self.GROUP, initial_members)

        def created() -> bool:
            return admin.cache.get(self.GROUP) is not None

        self._drive(create, created)
        # Provision every pool user's key and client up front, in both
        # runs identically: provisioning draws from the deployment RNG,
        # so doing it lazily (e.g. only when a revocation check needs a
        # client) would desynchronise the reference and chaos streams.
        for i in range(pool):
            user = f"u{i}"
            self.clients[user] = self.system.make_client(self.GROUP, user)

    def maybe_restart_enclave(self) -> None:
        if self.injector is None:
            return
        if self.injector.take_enclave_restart():
            self.system.restart_enclave()
            self.enclave_restarts += 1

    def apply(self, op: Operation) -> None:
        admin = self.system.admin
        if op.kind == OP_ADD:
            self._drive(lambda: admin.add_user(self.GROUP, op.user),
                        lambda: self._applied(op))
        else:
            self._drive(lambda: admin.remove_user(self.GROUP, op.user),
                        lambda: self._applied(op))
            self.check_revoked(op.user)

    def check_revoked(self, user: str) -> None:
        """The revocation invariant: after a remove (and whatever crash
        recovery it took), the revoked user's client must not reach a
        group key."""
        client = self.clients[user]
        self.revocation_checks += 1
        client.sync()
        try:
            client.current_group_key()
        except RevokedError:
            return
        self.revocation_failures += 1

    def group_key_hash(self) -> str:
        """Hash of the group key a (deterministically chosen) surviving
        member derives — the semantic stand-in for comparing sealed-gk
        bytes (see :func:`cloud_digest`)."""
        state = self.system.admin.cache.get(self.GROUP)
        member = sorted(state.table.all_members())[0]
        client = self.clients[member]
        client.sync()
        return hashlib.sha256(client.current_group_key()).hexdigest()

    def cold_start(self) -> Tuple[str, str]:
        """Cold-start equivalence probe (faults off): reopen the store —
        rolling forward any surviving journal — rebuild the
        administrator's group state from whatever snapshot + event
        suffix compaction left behind, and sync a brand-new client from
        sequence zero.  Returns ``(state_digest, key_hash)``.

        The state digest covers the epoch, the partition-id cursor and
        every partition record's signed payload bytes, so it pins
        exactly what a restarted administrator reconstructs.  The fresh
        client reuses the cached provisioned user key (``make_client``
        draws no deployment randomness for an already-provisioned user),
        keeping the reference and chaos RNG streams aligned.
        """
        self.injector = None
        self._reopen_store()
        admin = self.system.admin
        admin.cache.drop(self.GROUP)
        state = admin.load_group_from_cloud(self.GROUP)
        digest = hashlib.sha256()
        digest.update(f"epoch:{state.epoch}\x00".encode("utf-8"))
        digest.update(f"next:{state.table.next_partition_id}\x00"
                      .encode("utf-8"))
        for pid in sorted(state.records):
            digest.update(f"p{pid}\x00".encode("utf-8"))
            digest.update(hashlib.sha256(
                state.records[pid].payload()).digest())
        member = sorted(state.table.all_members())[0]
        client = self.system.make_client(self.GROUP, member)
        client.sync()
        key_hash = hashlib.sha256(client.current_group_key()).hexdigest()
        return digest.hexdigest(), key_hash

    def server_observability(self) -> Tuple[dict, list]:
        """The live server's SLO windows and shared request-log tail
        (network mode), fetched over the wire via ``ops.stats``."""
        if self._remote_store is None:
            return {}, []
        from repro.errors import ReproError

        try:
            stats = self._remote_store.server_stats()
        except ReproError:
            return {}, []
        slo = stats.get("slo", {})
        tail = stats.get("request_log", {}).get("tail", [])
        return slo, tail

    def finish(self) -> str:
        self.system.close()
        self._stop_server()
        return cloud_digest(self.inner)


def run_chaos(plan: Optional[FaultPlan] = None, *, ops: int = 30,
              pool: int = 12, initial: int = 5, capacity: int = 4,
              seed: str = "chaos", workers: Optional[int] = 1,
              compact_every: Optional[int] = None,
              remote: bool = False, traced: bool = False,
              ) -> ChaosReport:
    """Replay one deterministic membership trace twice — fault-free and
    under ``plan`` — and compare the final cloud bytes.

    ``seed`` derives everything: the trace, both deployments' RNG
    streams, and (by default) the fault schedule, so the entire
    comparison is replayable from one value.

    ``compact_every`` (when set) enables automatic snapshot compaction
    on both stores every that-many mutations, and the convergence
    verdict additionally requires cold starts from the two (differently)
    compacted stores to reconstruct identical state (see the module
    docstring).

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
    if plan is None:
        plan = FaultPlan.store_faults(seed)
    initial_members, trace = make_membership_trace(ops, pool, initial, seed)
    report = ChaosReport(seed=seed, plan=plan, ops_total=len(trace))

    with tempfile.TemporaryDirectory(prefix="chaos-ref-") as ref_root, \
            tempfile.TemporaryDirectory(prefix="chaos-run-") as chaos_root:
        # Reference: same trace, no injector.
        install(None)
        reference = _ChaosRun(ref_root, seed, capacity, pool, None,
                              workers=workers, compact_every=compact_every)
        reference.bootstrap(initial_members, pool)
        for op in trace:
            reference.apply(op)
        report.reference_key_hash = reference.group_key_hash()
        (report.reference_cold_digest,
         report.reference_cold_key_hash) = reference.cold_start()
        report.reference_horizon = reference.inner.snapshot_horizon()
        report.reference_digest = reference.finish()
        report.revocation_checks += reference.revocation_checks
        report.revocation_failures += reference.revocation_failures

        # Chaos: identical seeds, faults on.
        injector = FaultInjector(plan)
        install(injector)
        if traced:
            from repro import obs

            obs.tracer().reset()
            obs.enable()
            report.traced = True
        try:
            chaos = _ChaosRun(chaos_root, seed, capacity, pool, injector,
                              workers=workers, compact_every=compact_every,
                              remote=remote)
            chaos.bootstrap(initial_members, pool)
            for op in trace:
                chaos.maybe_restart_enclave()
                chaos.apply(op)
                report.ops_applied += 1
        finally:
            # The trace is done: the final state checks below verify
            # convergence and should not themselves be perturbed.
            install(None)
            if traced:
                from repro import obs

                obs.disable()
                obs.tracer().reset()
        report.chaos_key_hash = chaos.group_key_hash()
        (report.chaos_cold_digest,
         report.chaos_cold_key_hash) = chaos.cold_start()
        report.chaos_horizon = chaos.inner.snapshot_horizon()
        (report.server_slo,
         report.request_log_tail) = chaos.server_observability()
        report.chaos_digest = chaos.finish()
        report.crashes_recovered = chaos.crashes_recovered
        report.enclave_restarts = chaos.enclave_restarts
        report.revocation_checks += chaos.revocation_checks
        report.revocation_failures += chaos.revocation_failures
        report.fault_history = injector.history()
        report.retry_backoff_ms = (
            chaos.system.admin.retry.slept_ms
            + sum(c.retry.slept_ms for c in chaos.clients.values())
        )
    return report


# ---------------------------------------------------------------------------
# Sharded multi-enclave chaos (kill-any-shard failover)
# ---------------------------------------------------------------------------

@dataclass
class ShardChaosReport:
    """Outcome of one :func:`run_shard_chaos` comparison."""

    seed: str
    nshards: int
    plan: FaultPlan
    groups: List[str] = field(default_factory=list)
    ops_total: int = 0
    ops_applied: int = 0
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
    reference_key_hashes: dict = field(default_factory=dict)
    chaos_key_hashes: dict = field(default_factory=dict)
    fault_history: List[Tuple[str, str]] = field(default_factory=list)
    final_health: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """Byte-identical cloud state, identical per-group membership,
        the byte-identical group key at a surviving member of every
        group, every revoked user locked out whenever checked, and
        every shard back up (alive + re-attested) at the end."""
        shards_ok = self.final_health.get("status") == "ok"
        return (self.reference_digest == self.chaos_digest
                and (self.reference_membership_digest
                     == self.chaos_membership_digest)
                and self.reference_key_hashes == self.chaos_key_hashes
                and self.revocation_failures == 0
                and shards_ok)

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "nshards": self.nshards,
            "groups": self.groups,
            "ops_total": self.ops_total,
            "ops_applied": self.ops_applied,
            "scheduled_kills": self.scheduled_kills,
            "injected_kills": self.injected_kills,
            "respawns": self.respawns,
            "attest_faults": self.attest_faults,
            "revocation_checks": self.revocation_checks,
            "revocation_failures": self.revocation_failures,
            "faults_injected": len(self.fault_history),
            "reference_digest": self.reference_digest,
            "chaos_digest": self.chaos_digest,
            "reference_membership_digest": self.reference_membership_digest,
            "chaos_membership_digest": self.chaos_membership_digest,
            "reference_key_hashes": self.reference_key_hashes,
            "chaos_key_hashes": self.chaos_key_hashes,
            "final_health": self.final_health,
            "converged": self.converged,
        }


def make_shard_trace(groups: int, ops: int, pool: int, initial: int,
                     seed: str) -> Tuple[dict, List[Tuple[str, Operation]]]:
    """Deterministic multi-group churn: one membership trace per group
    (identities prefixed ``g<k>.u<i>`` so user pools are disjoint),
    interleaved round-robin.  Returns ``(initial_members_by_group,
    interleaved_trace)``."""
    initials: dict = {}
    per_group: dict = {}
    for k in range(groups):
        gid = f"g{k}"
        members, trace = make_membership_trace(
            ops, pool, initial, f"{seed}:{gid}")
        initials[gid] = [f"{gid}.{u}" for u in members]
        per_group[gid] = [
            Operation(op.kind, f"{gid}.{op.user}", op.timestamp)
            for op in trace
        ]
    interleaved: List[Tuple[str, Operation]] = []
    for index in range(ops):
        for k in range(groups):
            gid = f"g{k}"
            if index < len(per_group[gid]):
                interleaved.append((gid, per_group[gid][index]))
    return initials, interleaved


class _ShardRun:
    """One sharded deployment driven through an interleaved trace."""

    def __init__(self, nshards: int, seed: str, capacity: int) -> None:
        self.system = ShardedSystem(
            nshards=nshards, partition_capacity=capacity, params="toy64",
            seed=f"shard-chaos:{seed}",
        )
        self.clients = {}
        self.revocation_checks = 0
        self.revocation_failures = 0

    def bootstrap(self, initials: dict) -> None:
        for gid in sorted(initials):
            self.system.create_group(gid, initials[gid])

    def client(self, gid: str, user: str):
        # Client construction draws no deployment randomness (key
        # extraction is deterministic in the MSK), so lazy creation
        # cannot desynchronise the reference and chaos runs.
        if (gid, user) not in self.clients:
            self.clients[(gid, user)] = self.system.make_client(gid, user)
        return self.clients[(gid, user)]

    def apply(self, gid: str, op: Operation) -> None:
        if op.kind == OP_ADD:
            self.system.add_user(gid, op.user)
        else:
            self.system.remove_user(gid, op.user)
            self.check_revoked(gid, op.user)

    def check_revoked(self, gid: str, user: str) -> None:
        client = self.client(gid, user)
        self.revocation_checks += 1
        client.sync()
        try:
            client.current_group_key()
        except RevokedError:
            return
        self.revocation_failures += 1

    def membership_digest(self) -> str:
        digest = hashlib.sha256()
        for gid in self.system.group_ids():
            state = self.system.group_state(gid)
            digest.update(gid.encode("utf-8") + b"\x00")
            for member in sorted(state.table.all_members()):
                digest.update(member.encode("utf-8") + b"\x01")
        return digest.hexdigest()

    def key_hashes(self) -> dict:
        hashes = {}
        for gid in self.system.group_ids():
            state = self.system.group_state(gid)
            member = sorted(state.table.all_members())[0]
            client = self.client(gid, member)
            client.sync()
            key = client.current_group_key()
            hashes[gid] = hashlib.sha256(key).hexdigest()
        return hashes


def run_shard_chaos(plan: Optional[FaultPlan] = None, *, nshards: int = 2,
                    groups: int = 3, ops: int = 16, pool: int = 8,
                    initial: int = 4, capacity: int = 4,
                    seed: str = "shard-chaos") -> ShardChaosReport:
    """Kill-any-shard convergence: drive ``groups`` interleaved
    membership traces through a ``ShardedSystem(nshards)`` while killing
    *each shard in turn* mid-churn (plus any extra seeded ``shard.kill``
    faults from ``plan``), and compare the final cloud bytes, per-group
    membership and group keys against the fault-free single-enclave run
    of the same trace.

    Scheduled kills land at evenly spaced operation boundaries so every
    shard dies at least once while churn is still outstanding; the
    router respawns a dead shard on the next operation routed to it —
    sealed-MSK restore, journal roll-forward, mutual re-attestation to a
    live peer (itself under injected ``attest.fail`` faults, absorbed by
    the retry layer) — and any shard still down when the trace ends is
    respawned explicitly, so the final health probe must report every
    shard alive and re-attested.
    """
    if plan is None:
        plan = FaultPlan.shard_chaos(seed, nshards=nshards)
    initials, trace = make_shard_trace(groups, ops, pool, initial, seed)
    report = ShardChaosReport(seed=seed, nshards=nshards, plan=plan,
                              groups=sorted(initials),
                              ops_total=len(trace))

    # Reference: the same trace on a single enclave, fault-free.
    install(None)
    reference = _ShardRun(1, seed, capacity)
    reference.bootstrap(initials)
    for gid, op in trace:
        reference.apply(gid, op)
    report.reference_membership_digest = reference.membership_digest()
    report.reference_key_hashes = reference.key_hashes()
    report.reference_digest = cloud_digest(reference.system.cloud)
    report.revocation_checks += reference.revocation_checks
    report.revocation_failures += reference.revocation_failures
    reference.system.close()

    # Chaos: N shards, every one of them killed at least once mid-churn.
    injector = FaultInjector(plan)
    install(injector)
    try:
        chaos = _ShardRun(nshards, seed, capacity)
        chaos.bootstrap(initials)
        # Shard i dies just before operation (i+1)*len/(N+1): evenly
        # spaced, never at the very start or end, deterministic.
        kill_at = {
            ((index + 1) * len(trace)) // (nshards + 1): index
            for index in range(nshards)
        }
        for position, (gid, op) in enumerate(trace):
            victim = kill_at.get(position)
            if victim is not None:
                chaos.system.kill_shard(victim)
                report.scheduled_kills += 1
            extra = injector.take_shard_kill(nshards)
            if extra is not None and chaos.system.shards[extra].alive:
                chaos.system.kill_shard(extra)
                report.injected_kills += 1
            chaos.apply(gid, op)
            report.ops_applied += 1
        for shard in chaos.system.shards:
            if not shard.alive:
                chaos.system.respawn_shard(shard.index)
    finally:
        install(None)
    report.chaos_membership_digest = chaos.membership_digest()
    report.chaos_key_hashes = chaos.key_hashes()
    report.chaos_digest = cloud_digest(chaos.system.cloud)
    report.revocation_checks += chaos.revocation_checks
    report.revocation_failures += chaos.revocation_failures
    report.respawns = sum(s.respawns for s in chaos.system.shards)
    report.fault_history = injector.history()
    report.attest_faults = sum(
        1 for kind, _ in report.fault_history if kind == "attest.fail")
    report.final_health = chaos.system.health()
    chaos.system.close()
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
    parser.add_argument("--shards", type=int, default=2,
                        help="with --profile shard: enclave instance "
                             "count of the chaos deployment")
    parser.add_argument("--groups", type=int, default=3,
                        help="with --profile shard: interleaved group "
                             "count")
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

    if args.profile == "shard":
        shard_report = run_shard_chaos(
            FaultPlan.shard_chaos(args.seed, nshards=args.shards),
            nshards=args.shards, groups=args.groups,
            ops=max(4, args.ops // max(1, args.groups)),
            pool=args.pool, capacity=args.capacity, seed=args.seed,
        )
        print(json.dumps(shard_report.summary(), indent=2))
        return 0 if shard_report.converged else 1

    plan = (FaultPlan.store_faults(args.seed) if args.profile == "store"
            else FaultPlan.full_chaos(args.seed))
    report = run_chaos(plan, ops=args.ops, pool=args.pool,
                       capacity=args.capacity, seed=args.seed,
                       compact_every=args.compact_every,
                       remote=args.network,
                       traced=args.trace and args.network)
    print(json.dumps(report.summary(), indent=2))
    return 0 if report.converged else 1


if __name__ == "__main__":
    raise SystemExit(main())
