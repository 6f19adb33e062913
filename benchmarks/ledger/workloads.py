"""The four closed-loop workloads of the ledger.

Each workload builds its deployment from the seed (``setup``), runs
*rounds* of timed operations through the ``run(op_class, fn, *args)``
callable the runner hands it, checks its outputs outside the timers
(``check``), and turns its samples and program-counter deltas into named
metrics.  A class's bounded timing is the lowest of its p10, p25 and p50
that has ten samples on either side at the standard round count (stats.py
prints whether a run's own count still supports it); a rate is the median
over the rounds of a run of that round's own rate, so a stretch in which
the host was busy elsewhere costs a run one sample, not its mean.
``SLOTS`` maps the end-to-end metric names of ``BENCHMARK.json`` (shared
by all workloads) to each workload's own named metric; README.md has the
table.

Load shape: one generator thread, one request in flight; every caller
waits for its reply.  All cryptography runs at ``std160`` with the
library's defaults.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Sequence

import adapter
import stats

Run = Callable[..., Any]
Check = Callable[[bool, str], None]


def untimed(op_class: str, fn: Callable[..., Any], *args: Any) -> Any:
    """``run`` for set-up and warm-up operations."""
    return fn(*args)


def unchecked(ok: bool, message: str) -> None:
    """``check`` for warm-up rounds."""


def refresh(client) -> bytes:
    """What a member waits for after a change: sync, then hold the key."""
    client.sync()
    return client.current_group_key()


class Workload:
    name = ""
    #: end-to-end slot -> this workload's named metric
    SLOTS: Dict[str, str] = {}
    #: informational per-layer metric -> named metric of the untraced pass
    INFO: Dict[str, str] = {}
    #: sizes per scale; ``rounds`` is the fixed round count of a full run
    SCALES: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.p = self.SCALES[scale]
        self.rng = random.Random(f"ledger:{self.name}:{seed}")
        #: rounds of the timed loop completed so far (kept by the runner)
        self.rounds_done = 0

    @property
    def standard_rounds(self) -> int:
        return self.p["rounds"]

    @property
    def least_rounds(self) -> int:
        """Rounds a time-budgeted run makes at least: every class then has
        samples in the traced and in the untraced rounds of a traced pass."""
        return 2

    def _drng(self):
        return adapter.DeterministicRng(f"ledger:{self.name}:{self.seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, run: Run, check: Check) -> None:
        raise NotImplementedError

    def check(self, check: Check) -> None:
        """End-of-run output oracles (outside the timers)."""

    def counters(self) -> Dict[str, float]:
        """Monotonic program counters; the runner reports their deltas
        over the timed loop."""
        return {}

    def gauges(self) -> Dict[str, float]:
        """Levels read once, after the timed loop."""
        return {}

    def units(self, samples: Dict[str, List[float]]) -> int:
        """The denominator of every ``*_per_op`` layer metric."""
        return sum(len(values) for values in samples.values())

    def named_metrics(self, samples: Dict[str, List[float]],
                      marks: List[Dict[str, int]],
                      delta: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
        """``marks[r]`` holds the sample count of every class at the end
        of round ``r``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _round_rate(units: int, classes: Sequence[str],
                samples: Dict[str, List[float]],
                marks: List[Dict[str, int]]):
    """Median over the rounds of ``units`` (what one round completes) per
    second that round spent in operations of ``classes``."""
    rates, start = [], {}
    for mark in marks:
        seconds = sum(sum(samples[cls][start.get(cls, 0):mark.get(cls, 0)])
                      for cls in classes)
        start = mark
        if seconds:                 # a round may hold none of `classes`
            rates.append(units / seconds)
    return stats.scalar(median(rates), "1/s", len(rates))


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------

class Churn(Workload):
    """Membership writes on one standing group: enclave_app/ibbe/ec
    exponentiations do the work; pairing.pair, net and core.client none."""

    name = "churn"
    SLOTS = {
        "op1_ms": "add_p10_ms",
        "op2_ms": "remove_p10_ms",
        "op3_ms": "remove_p50_ms",
        "rate_per_s": "admin_ops_per_s",
        "bytes_per_op": "cloud_bytes_per_op",
    }
    INFO = {"op1_p95_ms": "add_p95_ms", "op2_p95_ms": "remove_p95_ms"}
    # A round is a shuffled block of `block` adds and `block` removes, so
    # the mix is exactly 50 % revocations and the group stays within
    # ±block of `members` (inside the issue's [224, 288] band).
    SCALES = {
        "full": dict(members=256, capacity=32, block=8, warmup=2, rounds=28,
                     revoked_probes=8),
        "smoke": dict(members=32, capacity=8, block=2, warmup=1, rounds=2,
                      revoked_probes=2),
    }
    GID = "churn"

    def setup(self) -> None:
        p = self.p
        self.system = adapter.quickstart_system(
            partition_capacity=p["capacity"], rng=self._drng())
        self.admin = self.system.admin
        self.model = [f"m{i}" for i in range(p["members"])]
        self.revoked: List[str] = []
        self.minted = 0
        self.admin.create_group(self.GID, list(self.model))
        for _ in range(p["warmup"]):
            self._add(untimed)
            self._remove(untimed)

    def _add(self, run: Run) -> None:
        user = f"a{self.minted}"
        self.minted += 1
        run("add", self.admin.add_user, self.GID, user)
        self.model.append(user)

    def _remove(self, run: Run) -> None:
        user = self.model.pop(self.rng.randrange(len(self.model)))
        run("remove", self.admin.remove_user, self.GID, user)
        self.revoked.append(user)

    def run_round(self, run: Run, check: Check) -> None:
        block = [self._add, self._remove] * self.p["block"]
        self.rng.shuffle(block)
        for op in block:
            op(run)

    def check(self, check: Check) -> None:
        check(sorted(self.admin.members(self.GID)) == sorted(self.model),
              "churn: final roster differs from the generator's model")
        # Fold the history so the probes bootstrap from the snapshot
        # instead of replaying every event of the run.
        self.system.cloud.compact()
        table = self.admin.group_state(self.GID).table
        keys = {
            refresh(self.system.make_client(
                self.GID, table.members_of(pid)[0]))
            for pid in table.partition_ids
        }
        check(len(keys) == 1,
              "churn: partitions do not derive one common group key")
        probes = self.rng.sample(
            self.revoked, min(self.p["revoked_probes"], len(self.revoked)))
        for user in probes:
            try:
                key = refresh(self.system.make_client(self.GID, user))
            except adapter.ReproError:
                continue
            check(key not in keys,
                  f"churn: revoked {user} still derives the group key")

    def counters(self) -> Dict[str, float]:
        metrics = self.system.cloud.metrics
        return {
            "cloud_bytes_in": metrics.bytes_in,
            "cloud_bytes_out": metrics.bytes_out,
            "crossings": self.system.enclave.meter.crossings,
            "repartitions": self.admin.metrics.repartitions,
        }

    def named_metrics(self, samples, marks, delta):
        adds, removes = samples["add"], samples["remove"]
        ops = len(adds) + len(removes)
        return {
            **stats.timings("add", adds),
            **stats.timings("remove", removes),
            "admin_ops_per_s": _round_rate(
                2 * self.p["block"], ("add", "remove"), samples, marks),
            "cloud_bytes_per_op": stats.scalar(
                delta["cloud_bytes_in"] / ops, "B", ops),
        }

    def close(self) -> None:
        self.system.close()


# ---------------------------------------------------------------------------
# refresh
# ---------------------------------------------------------------------------

class Refresh(Workload):
    """Member reads after each change: the only workload where
    pairing.pair, ec.multi_mul, ecdsa.verify and the client hint cache do
    the work."""

    name = "refresh"
    SLOTS = {
        "op1_ms": "refresh_rekey_p10_ms",
        "op2_ms": "refresh_member_change_p25_ms",
        "op3_ms": "cold_join_p50_ms",
        "rate_per_s": "refreshes_per_s",
        "bytes_per_op": "cloud_bytes_read_per_refresh",
    }
    INFO = {"op1_p95_ms": "refresh_rekey_p95_ms",
            "op2_p95_ms": "refresh_member_change_p95_ms"}
    # The group is built `joiners` short of `members` so the last
    # partition has exactly that many open slots; the cold joiners fill
    # it, every partition is then full, and each round's add lands in the
    # partition its remove just opened.
    SCALES = {
        "full": dict(members=256, capacity=64, joiners=20, rounds=45),
        "smoke": dict(members=32, capacity=8, joiners=2, rounds=2),
    }
    GID = "refresh"

    def setup(self) -> None:
        p = self.p
        self.system = adapter.quickstart_system(
            partition_capacity=p["capacity"], rng=self._drng())
        self.admin = self.system.admin
        self.model = [f"m{i}" for i in range(p["members"] - p["joiners"])]
        self.minted = 0
        self.admin.create_group(self.GID, list(self.model))
        self.joiners = [f"j{i}" for i in range(p["joiners"])]
        for user in self.joiners:
            self.system.user_key(user)      # pre-provisioned identities
            self.admin.add_user(self.GID, user)
        table = self._table()
        self.watchers = [
            self.system.make_client(self.GID, table.members_of(pid)[0])
            for pid in table.partition_ids
        ]
        self.clients = list(self.watchers)
        self.protected = {w.identity for w in self.watchers}
        self.protected.update(self.joiners)
        for watcher in self.watchers:
            refresh(watcher)
        self.group_key = self.watchers[0].current_group_key()
        # Warm-up round; the cold joins of round 0 then run against the
        # same history whatever the time budget.
        self._change_round(untimed, unchecked)

    def _table(self):
        return self.admin.group_state(self.GID).table

    def _refresh_all(self, run: Run, changed_pid: int, other: str) -> List[bytes]:
        table = self._table()
        keys = []
        for watcher in self.watchers:
            mine = table.partition_of(watcher.identity) == changed_pid
            keys.append(run("member_change" if mine else other,
                            refresh, watcher))
        return keys

    def _change_round(self, run: Run, check: Check) -> None:
        candidates = [u for u in self.model if u not in self.protected]
        victim = self.rng.choice(candidates)
        pid = self._table().partition_of(victim)
        self.admin.remove_user(self.GID, victim)        # untimed driver
        self.model.remove(victim)
        keys = self._refresh_all(run, pid, "rekey")
        check(len(set(keys)) == 1, "refresh: watchers disagree after a remove")
        check(keys[0] != self.group_key,
              "refresh: the group key did not change on a removal")
        self.group_key = keys[0]

        user = f"a{self.minted}"
        self.minted += 1
        self.admin.add_user(self.GID, user)             # untimed driver
        self.model.append(user)
        keys = self._refresh_all(run, self._table().partition_of(user), "noop")
        check(set(keys) == {self.group_key},
              "refresh: the group key changed on an add")

    def _cold_join(self, user: str) -> bytes:
        client = self.system.make_client(self.GID, user)
        self.clients.append(client)
        return refresh(client)

    def run_round(self, run: Run, check: Check) -> None:
        if self.rounds_done == 0:
            for user in self.joiners:
                key = run("cold_join", self._cold_join, user)
                check(key == self.group_key,
                      f"refresh: cold joiner {user} derived another key")
        self._change_round(run, check)

    def check(self, check: Check) -> None:
        check(sorted(self.admin.members(self.GID))
              == sorted(self.model + self.joiners),
              "refresh: final roster differs from the generator's model")

    def counters(self) -> Dict[str, float]:
        metrics = self.system.cloud.metrics
        return {
            "cloud_bytes_in": metrics.bytes_in,
            "cloud_bytes_out": metrics.bytes_out,
            "crossings": self.system.enclave.meter.crossings,
            "repartitions": self.admin.metrics.repartitions,
            "decrypts": sum(c.decrypt_count for c in self.clients),
            "expansions": sum(c.expansion_count for c in self.clients),
        }

    def named_metrics(self, samples, marks, delta):
        timed = sum(len(values) for values in samples.values())
        return {
            **stats.timings("refresh_rekey", samples["rekey"]),
            **stats.timings("refresh_member_change",
                            samples["member_change"]),
            **stats.timings("cold_join", samples["cold_join"]),
            **stats.timings("refresh_noop", samples["noop"]),
            # Two changes a round, every watcher refreshing after each.
            "refreshes_per_s": _round_rate(
                2 * len(self.watchers), ("member_change", "rekey", "noop"),
                samples, marks),
            "cloud_bytes_read_per_refresh": stats.scalar(
                delta["cloud_bytes_out"] / timed, "B", timed),
        }

    def close(self) -> None:
        self.system.close()


# ---------------------------------------------------------------------------
# provision_failover
# ---------------------------------------------------------------------------

class ProvisionFailover(Workload):
    """Bulk group builds and kill-a-shard recovery on two enclaves: the
    only workload that exercises shard routing, sgx sealing and
    attestation, and state reload from the cloud."""

    name = "provision_failover"
    SLOTS = {
        "op1_ms": "routed_add_p25_ms",
        "op2_ms": "failover_p25_ms",
        "op3_ms": "create_group_p25_ms",
        "rate_per_s": "create_users_per_s",
        "bytes_per_op": "cloud_bytes_per_user",
    }
    INFO = {"op1_p95_ms": "routed_add_p95_ms",
            "op2_p95_ms": "failover_p95_ms"}
    # A round is one pass: create `groups` groups of sizes largest/rank,
    # `failovers` kill-and-recover cycles alternating the shard, delete all.
    SCALES = {
        "full": dict(capacity=32, groups=16, largest=1024, failovers=10,
                     rounds=4),
        "smoke": dict(capacity=8, groups=4, largest=64, failovers=2,
                      rounds=2),
    }
    NSHARDS = 2

    def setup(self) -> None:
        self.system = adapter.ShardedSystem(
            nshards=self.NSHARDS, partition_capacity=self.p["capacity"],
            seed=f"ledger:{self.name}:{self.seed}")
        self.crossings_lost = 0     # meters of killed enclaves
        self.create_bytes = 0
        self.created_users = 0
        # Warm-up: every shard builds a group, dies and recovers once.
        groups = [self._group_on(shard, f"warm{shard}")
                  for shard in range(self.NSHARDS)]
        for shard, gid in enumerate(groups):
            self.system.create_group(
                gid, [f"{gid}u{j}" for j in range(2 * self.p["capacity"])])
            self._kill(shard)
            self.system.add_user(gid, f"{gid}x")
        for gid in groups:
            self.system.delete_group(gid)

    def _group_on(self, shard: int, stem: str) -> str:
        """A group id with this stem that the ring places on ``shard``."""
        k = 0
        while self.system.owner(f"{stem}-{k}") != shard:
            k += 1
        return f"{stem}-{k}"

    def _kill(self, shard: int) -> None:
        self.crossings_lost += self.system.shards[shard].enclave.meter.crossings
        self.system.kill_shard(shard)

    def _create(self, run: Run, gid: str, members: List[str]) -> None:
        before = self.system.cloud.metrics.bytes_in
        run("create_group", self.system.create_group, gid, members)
        self.create_bytes += self.system.cloud.metrics.bytes_in - before
        self.created_users += len(members)

    def run_round(self, run: Run, check: Check) -> None:
        p, tag = self.p, f"p{self.rounds_done}"
        # Zipf-like sizes, each placed on the lighter shard so that what a
        # dead shard must reload — and hence failover time — is balanced.
        load = [0] * self.NSHARDS
        owned: List[List[str]] = [[] for _ in range(self.NSHARDS)]
        for rank in range(1, p["groups"] + 1):
            size = p["largest"] // rank
            shard = load.index(min(load))
            gid = self._group_on(shard, f"{tag}r{rank}")
            load[shard] += size
            owned[shard].append(gid)
            self._create(run, gid, [f"{gid}u{j}" for j in range(size)])
        for k in range(p["failovers"]):
            shard = k % self.NSHARDS
            # Smallest groups first: the oracle's cold clients replay them.
            gid = owned[shard][-1 - (k // self.NSHARDS) % len(owned[shard])]
            run("routed_add", self.system.add_user, gid, f"{gid}live{k}")
            self._kill(shard)
            user = f"{gid}back{k}"
            run("failover", self.system.add_user, gid, user)
            self._check_recovered(check, gid, user)
        for gids in owned:
            for gid in gids:
                run("delete_group", self.system.delete_group, gid)

    def _check_recovered(self, check: Check, gid: str, user: str) -> None:
        table = self.system.group_state(gid).table
        check(user in table, f"provision_failover: {user} was not added")
        check(self.system.health()["status"] == "ok",
              "provision_failover: deployment unhealthy after failover")
        mine = table.partition_of(user)
        elsewhere = next((pid for pid in table.partition_ids if pid != mine),
                         mine)
        other = next(m for m in table.members_of(elsewhere) if m != user)
        keys = {refresh(self.system.make_client(gid, who))
                for who in (user, other)}
        check(len(keys) == 1,
              f"provision_failover: {gid} members disagree after failover")

    def check(self, check: Check) -> None:
        check(self.system.group_ids() == [],
              "provision_failover: groups left behind after delete")

    def counters(self) -> Dict[str, float]:
        metrics = self.system.cloud.metrics
        return {
            "cloud_bytes_in": metrics.bytes_in,
            "cloud_bytes_out": metrics.bytes_out,
            "crossings": self.crossings_lost + self.system.total_crossings(),
            "repartitions": sum(s.admin.metrics.repartitions
                                for s in self.system.shards),
            "create_bytes": self.create_bytes,
            "created_users": self.created_users,
        }

    def named_metrics(self, samples, marks, delta):
        users = int(delta["created_users"])
        return {
            **stats.timings("routed_add", samples["routed_add"]),
            **stats.timings("failover", samples["failover"]),
            **stats.timings("create_group", samples["create_group"]),
            **stats.timings("delete_group", samples["delete_group"]),
            "create_users_per_s": _round_rate(
                users // len(marks), ("create_group",), samples, marks),
            "cloud_bytes_per_user": stats.scalar(
                delta["create_bytes"] / users, "B", users),
        }

    def close(self) -> None:
        self.system.close()


# ---------------------------------------------------------------------------
# store_serving
# ---------------------------------------------------------------------------

class Lane:
    """One served store: a ``ServerThread`` over ``backing``, the writer
    and reader connections to it, and the reference model of what it was
    sent."""

    def __init__(self, tag: str, backing, readers: int, groups: int) -> None:
        self.tag = tag
        self.backing = backing
        self.server = adapter.ServerThread(backing)
        url = self.server.start()
        self.writer = adapter.RemoteCloudStore(url)
        self.reader = adapter.RemoteCloudStore(url)
        for store in (self.writer, self.reader):
            store.poll_dir("/", 0)      # connect and shake hands now
        self.mirror = adapter.CloudStore()
        self.latest: Dict[str, bytes] = {}
        self.versions: Dict[str, int] = {}
        self.cursors = [[0] * groups for _ in range(readers)]
        self.commits = 0

    def wire(self, counter: str) -> float:
        return sum(store.metrics.registry.snapshot().get(counter, 0)
                   for store in (self.writer, self.reader))

    def close(self) -> None:
        self.writer.close()
        self.reader.close()
        self.server.stop()


class StoreServing(Workload):
    """No cryptography: churn-shaped commits and reader syncs through
    RemoteCloudStore, TCP and ServerThread to an in-memory CloudStore and
    then to a FileCloudStore; the only workload where net and cloud do the
    work."""

    name = "store_serving"
    # Two lanes, one after the other.  The `file` lane is the one the issue
    # asks for, FileCloudStore behind the server; its timings keep the
    # issue's names (store_*) but are informational: three quarters of a
    # file-backed commit is ext4 metadata work that, on the box the first
    # numbers come from, drifts 70 % over ten runs (README, "Two lanes").
    # The `mem` lane serves the in-memory CloudStore over the same wire
    # path; its timings (wire_*) repeat and fill the bounded slots.  It
    # runs first: sharing rounds with the file lane made it 15-30 % slower,
    # and slower still as the disk degraded.
    SLOTS = {
        "op1_ms": "wire_fetch_p10_ms",
        "op2_ms": "wire_poll_p10_ms",
        "op3_ms": "wire_commit_p10_ms",
        "rate_per_s": "wire_rounds_per_s",
        "bytes_per_op": "wire_bytes_per_round",
    }
    INFO = {"op1_p95_ms": "wire_fetch_p95_ms",
            "op2_p95_ms": "wire_poll_p95_ms",
            "store_commit_p50_ms": "store_commit_p50_ms",
            "store_sync_p50_ms": "store_sync_p50_ms",
            "store_sync_p95_ms": "store_sync_p95_ms"}
    #: Shape of one revocation commit of `churn` at std160 (256 members,
    #: capacity 32), captured by capture_shape.py and frozen here: one
    #: signed descriptor, one signed record per partition, the sealed key.
    SHAPE = dict(descriptor_bytes=3056, record_bytes=571, records=9,
                 sealed_bytes=86)
    # A round of the timed loop is one whole compaction cycle on one lane
    # (a store compacts once `compact_every` mutations have accumulated, so
    # every ceil(compact_every / 11) commits): the log-length sawtooth a
    # file-backed poll climbs is sampled evenly whatever the time budget.
    # The first `mem_rounds` rounds serve the mem lane (about 6 s), every
    # later one the file lane (about 4 s each).
    SCALES = {
        "full": dict(groups=20, readers=4, compact_every=2000, mem_rounds=20,
                     rounds=24),
        "smoke": dict(groups=4, readers=2, compact_every=110, mem_rounds=2,
                      rounds=4),
    }
    # No warm-up traffic: the bounded timings rest on thousands of calls,
    # and file-store work in set-up would make `setup_s` follow the state
    # of the disk.

    def setup(self) -> None:
        p = self.p
        self.root = Path(tempfile.mkdtemp(prefix=".ledger_tmp-",
                                          dir=adapter.ROOT))
        self.mem = Lane(
            "mem", adapter.CloudStore(compact_every=p["compact_every"]),
            p["readers"], p["groups"])
        self.file = Lane(
            "file", adapter.FileCloudStore(
                self.root / "store", compact_every=p["compact_every"]),
            p["readers"], p["groups"])
        self.lanes = (self.mem, self.file)
        self.payload_bytes = 0

    def _serve(self, lane: Lane, run: Run, check: Check) -> None:
        """One serving round: a revocation-shaped commit, then every reader
        syncs (polls the directory from its cursor, fetches the descriptor
        and its own record)."""
        shape = self.SHAPE
        group = lane.commits % self.p["groups"]
        directory = f"/g{group}"
        lane.commits += 1
        sizes = [(f"{directory}/descriptor", shape["descriptor_bytes"])]
        sizes += [(f"{directory}/p{k}", shape["record_bytes"])
                  for k in range(shape["records"])]
        sizes.append((f"{directory}/sealed-gk", shape["sealed_bytes"]))
        batch = adapter.CloudBatch()
        for index, (path, size) in enumerate(sizes):
            data = self.rng.randbytes(size)
            # The descriptor put is the conditional commit point.
            expected = lane.versions.get(path, 0) if index == 0 else None
            batch.put(path, data, expected_version=expected)
            lane.latest[path] = data
            self.payload_bytes += size
        versions = run(f"{lane.tag}_commit", lane.writer.commit, batch)
        if versions is not None:        # None: it failed, and was counted
            lane.versions.update(versions)
        lane.mirror.commit(batch)
        for reader in range(self.p["readers"]):
            events, cursor = run(
                f"{lane.tag}_poll", lane.reader.poll_dir, directory,
                lane.cursors[reader][group]) or ([], 0)
            lane.cursors[reader][group] = max(cursor,
                                              lane.cursors[reader][group])
            wanted = [f"{directory}/descriptor",
                      f"{directory}/p{reader % shape['records']}"]
            objects = run(f"{lane.tag}_fetch", lane.reader.get_many,
                          wanted) or {}
            check(bool(events), f"store_serving: a {lane.tag} poll after a "
                                "commit returned no events")
            check(all(path in objects
                      and objects[path].data == lane.latest[path]
                      for path in wanted),
                  f"store_serving: {lane.tag} get_many did not return the "
                  "last committed bytes")

    @property
    def least_rounds(self) -> int:
        return self.p["mem_rounds"] + 2

    @property
    def cycle(self) -> int:
        """Serving rounds from one compaction to the next."""
        puts = self.SHAPE["records"] + 2
        return -(-self.p["compact_every"] // puts)

    def run_round(self, run: Run, check: Check) -> None:
        lane = (self.mem if self.rounds_done < self.p["mem_rounds"]
                else self.file)
        for _ in range(self.cycle):
            self._serve(lane, run, check)

    @staticmethod
    def _digest(store) -> str:
        digest = hashlib.sha256()
        for obj in sorted(store.adversary_view(), key=lambda o: o.path):
            digest.update(f"{obj.path}\0{obj.version}\0".encode())
            digest.update(obj.data)
        return digest.hexdigest()

    def check(self, check: Check) -> None:
        for lane in self.lanes:
            check(self._digest(lane.backing) == self._digest(lane.mirror),
                  f"store_serving: the {lane.tag} lane's served objects "
                  "differ from the in-memory reference store's")

    def counters(self) -> Dict[str, float]:
        backings = [lane.backing.metrics for lane in self.lanes]
        return {
            "cloud_bytes_in": sum(m.bytes_in for m in backings),
            "cloud_bytes_out": sum(m.bytes_out for m in backings),
            "compactions": sum(m.registry.snapshot().get(
                "cloud.compactions", 0) for m in backings),
            "wire_bytes": sum(lane.wire("net.rpc.bytes_sent")
                              + lane.wire("net.rpc.bytes_received")
                              for lane in self.lanes),
            "rpcs": sum(lane.wire("net.rpc.requests") for lane in self.lanes),
            "payload_bytes": self.payload_bytes,
        }

    def gauges(self) -> Dict[str, float]:
        store = self.root / "store"
        return {
            "stored_bytes": sum(f.stat().st_size for f in store.rglob("*")
                                if f.is_file()),
            "live_payload_bytes": sum(len(data) for data
                                      in self.file.latest.values()),
        }

    def units(self, samples) -> int:
        """Serving rounds, over both lanes."""
        return len(samples["mem_commit"]) + len(samples["file_commit"])

    def named_metrics(self, samples, marks, delta):
        rounds = self.units(samples)
        readers = self.p["readers"]
        syncs = [poll + fetch for poll, fetch
                 in zip(samples["file_poll"], samples["file_fetch"])]
        # What each whole serving round took on the mem lane.
        serving = [
            commit + sum(samples["mem_poll"][i * readers:(i + 1) * readers])
            + sum(samples["mem_fetch"][i * readers:(i + 1) * readers])
            for i, commit in enumerate(samples["mem_commit"])]
        return {
            **stats.timings("wire_fetch", samples["mem_fetch"]),
            **stats.timings("wire_poll", samples["mem_poll"]),
            **stats.timings("wire_commit", samples["mem_commit"]),
            # At the p10 serving-round time, like the three timings above:
            # the median round follows the host (README, "Noise floor").
            "wire_rounds_per_s": stats.scalar(
                1.0 / stats.quantile(serving, 10), "1/s", len(serving)),
            # Every serving round is the same nine requests.
            "wire_bytes_per_round": stats.scalar(
                delta["wire_bytes"] / rounds, "B", rounds),
            **stats.timings("store_commit", samples["file_commit"]),
            **stats.timings("store_sync", syncs),
            **stats.timings("store_poll", samples["file_poll"], (50, 95)),
            "store_rounds_per_s": _round_rate(
                self.cycle, ("file_commit", "file_poll", "file_fetch"),
                samples, marks),
        }

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in
             (Churn, Refresh, ProvisionFailover, StoreServing)}
