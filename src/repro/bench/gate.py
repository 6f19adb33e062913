"""The CI performance-regression gate.

``python -m repro.bench.gate`` runs a small, headless subset of the
paper's benchmark operations (Fig. 2 raw-scheme crypto, Fig. 6 group
bootstrap, Fig. 7 membership churn) at toy parameters, records for each
operation

* the wall-time distribution (``mean``/``p50``/``p95`` over
  ``--repeats`` runs), and
* the **deterministic cost dimensions** — cloud bytes written and
  enclave boundary crossings — which depend only on the algorithm, not
  the machine,

and writes the lot to ``BENCH_<rev>.json``.  Given ``--baseline`` it
compares against a committed snapshot and exits non-zero on regression.

Two tolerance classes keep the gate honest on noisy CI runners:
deterministic dimensions use ``tolerance_deterministic`` (default 0 —
*any* extra crossing or byte is a regression, because those numbers
cannot jitter), while wall time uses the loose ``tolerance_time``
(default 0.5, i.e. flag only a >50 % slowdown).  Both knobs live in
``pyproject.toml``'s ``[tool.repro.bench]`` table.

The schema of a snapshot file::

    {"schema": 1, "rev": "abc1234", "scale": 1.0, "repeats": 3,
     "params": "toy64",
     "ops": {"fig6.create_group": {"mean": ..., "p50": ..., "p95": ...,
                                   "bytes": ..., "crossings": ...,
                                   "samples": [...]}, ...}}
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import quantile_from_samples
from repro.errors import ValidationError

SCHEMA_VERSION = 1

#: Dimensions that are a pure function of the algorithm and inputs; any
#: drift is a real cost change, never measurement noise.
DETERMINISTIC_DIMS = ("bytes", "crossings")

DEFAULT_TOLERANCES = {
    "tolerance_time": 0.5,
    "tolerance_deterministic": 0.0,
}


# ---------------------------------------------------------------------------
# The benchmark operations
# ---------------------------------------------------------------------------

def _bench_system(seed: str, capacity: int, cloud=None):
    from repro import quickstart_system
    from repro.crypto.rng import DeterministicRng

    return quickstart_system(
        partition_capacity=capacity,
        params="toy64",
        rng=DeterministicRng(f"gate:{seed}"),
        cloud=cloud,
        system_bound=capacity,
        workers=1,
    )


def _footprint(system) -> Tuple[float, float]:
    metrics = system.telemetry()["metrics"]
    return metrics["cloud.bytes_in"], metrics["sgx.crossings"]


def _op_fig2_encrypt(scale: float) -> Tuple[float, float, float]:
    """Raw IBBE encryption to a broadcast set (Fig. 2 kernel)."""
    from repro import ibbe
    from repro.crypto.rng import DeterministicRng
    from repro.pairing import PairingGroup, preset

    n = max(4, int(16 * scale))
    group = PairingGroup(preset("toy64"))
    rng = DeterministicRng("gate:fig2")
    _, pk = ibbe.setup(group, m=n, rng=rng)
    identities = [f"u{i}" for i in range(n)]
    start = time.perf_counter()
    _, ciphertext = ibbe.encrypt_pk(pk, identities, rng)
    elapsed = time.perf_counter() - start
    return elapsed, float(ciphertext.size_bytes()), 0.0


def _op_fig6_create_group(scale: float) -> Tuple[float, float, float]:
    """Group bootstrap: create one group of ``64·scale`` users (Fig. 6)."""
    n = max(8, int(64 * scale))
    system = _bench_system("fig6", capacity=16)
    try:
        before_bytes, before_crossings = _footprint(system)
        start = time.perf_counter()
        system.admin.create_group("g", [f"u{i}" for i in range(n)])
        elapsed = time.perf_counter() - start
        after_bytes, after_crossings = _footprint(system)
        return (elapsed, after_bytes - before_bytes,
                after_crossings - before_crossings)
    finally:
        system.close()


def _op_fig7_add_user(scale: float) -> Tuple[float, float, float]:
    """Membership add into an existing group (Fig. 7 churn)."""
    n = max(8, int(32 * scale))
    system = _bench_system("fig7a", capacity=8)
    try:
        system.admin.create_group("g", [f"u{i}" for i in range(n)])
        before_bytes, before_crossings = _footprint(system)
        start = time.perf_counter()
        system.admin.add_user("g", "newcomer")
        elapsed = time.perf_counter() - start
        after_bytes, after_crossings = _footprint(system)
        return (elapsed, after_bytes - before_bytes,
                after_crossings - before_crossings)
    finally:
        system.close()


def _op_fig7_remove_user(scale: float) -> Tuple[float, float, float]:
    """Revocation (key rotation) from an existing group (Fig. 7)."""
    n = max(8, int(32 * scale))
    system = _bench_system("fig7r", capacity=8)
    try:
        system.admin.create_group("g", [f"u{i}" for i in range(n)])
        before_bytes, before_crossings = _footprint(system)
        start = time.perf_counter()
        system.admin.remove_user("g", "u0")
        elapsed = time.perf_counter() - start
        after_bytes, after_crossings = _footprint(system)
        return (elapsed, after_bytes - before_bytes,
                after_crossings - before_crossings)
    finally:
        system.close()


def _op_fig8_decrypt(scale: float) -> Tuple[float, float, float]:
    """Client-side partition decryption (Fig. 8 kernel): IBBE decrypt
    plus envelope unwrap at a synced member."""
    n = max(8, int(32 * scale))
    system = _bench_system("fig8", capacity=8)
    try:
        system.admin.create_group("g", [f"u{i}" for i in range(n)])
        client = system.make_client("g", "u0")
        client.sync()
        state = system.admin.group_state("g")
        record = next(r for r in state.records.values()
                      if "u0" in r.members)
        start = time.perf_counter()
        client.decrypt_partition(record)
        elapsed = time.perf_counter() - start
        return elapsed, float(record.crypto_bytes()), 0.0
    finally:
        system.close()


def _op_client_sync(scale: float) -> Tuple[float, float, float]:
    """Fresh-client bootstrap against a churned group: the download +
    verify cost of joining late (the client path of Fig. 5)."""
    n = max(8, int(32 * scale))
    system = _bench_system("sync", capacity=8)
    try:
        system.admin.create_group("g", [f"u{i}" for i in range(n)])
        for i in range(4):
            system.admin.remove_user("g", f"u{i}")
            system.admin.add_user("g", f"w{i}")
        client = system.make_client("g", f"u{n - 1}")
        before = system.cloud.metrics.bytes_out
        start = time.perf_counter()
        client.sync()
        elapsed = time.perf_counter() - start
        return elapsed, float(system.cloud.metrics.bytes_out - before), 0.0
    finally:
        system.close()


#: (scale, compacted) -> TemporaryDirectory holding a prebuilt history
#: store.  The cold-start ops only *read* the store (compaction happens
#: at build time), so one build serves every repeat.
_COLD_STORES: Dict[Tuple[float, bool], Any] = {}


def _cold_start_store(scale: float, compacted: bool):
    """A FileCloudStore carrying one live group plus a long mutation
    history (~``10000·scale`` filler events over 50 rotating paths), so
    history length dwarfs live object count — the regime where snapshot
    bootstrap pays off."""
    import tempfile

    from repro.cloud import CloudBatch, FileCloudStore

    key = (scale, compacted)
    if key not in _COLD_STORES:
        tmp = tempfile.TemporaryDirectory(prefix="gate-cold-")
        store = FileCloudStore(tmp.name)
        system = _bench_system("cold", capacity=8, cloud=store)
        try:
            n = max(8, int(32 * scale))
            system.admin.create_group("g", [f"u{i}" for i in range(n)])
            events = max(200, int(10_000 * scale))
            paths = [f"/history/h{i}" for i in range(50)]
            written = 0
            while written < events:
                batch = CloudBatch()
                for _ in range(min(200, events - written)):
                    batch.put(paths[written % len(paths)],
                              written.to_bytes(4, "big") * 8)
                    written += 1
                store.commit(batch)
            if compacted:
                store.compact()
        finally:
            system.close()
        _COLD_STORES[key] = tmp
    return _COLD_STORES[key].name


def _op_cold_start(scale: float, compacted: bool
                   ) -> Tuple[float, float, float]:
    """Cold start: reopen the store, reload the group's administrative
    state, and sync a brand-new client from sequence zero.  The
    ``replay`` variant scans the full event history; the ``snapshot``
    variant bootstraps from the compacted manifest — the O(changes)
    claim under test."""
    from repro.cloud import FileCloudStore

    root = _cold_start_store(scale, compacted)
    system = _bench_system("cold", capacity=8)
    try:
        system.user_key("u0")   # provision outside the timer
        start = time.perf_counter()
        store = FileCloudStore(root)
        system.rebind_store(store)
        system.admin.load_group_from_cloud("g")
        client = system.make_client("g", "u0")
        client.sync()
        elapsed = time.perf_counter() - start
        client.current_group_key()   # sanity: the key must be reachable
        return elapsed, float(store.metrics.bytes_out), 0.0
    finally:
        system.close()


def _op_cold_start_replay(scale: float) -> Tuple[float, float, float]:
    return _op_cold_start(scale, compacted=False)


def _op_cold_start_snapshot(scale: float) -> Tuple[float, float, float]:
    return _op_cold_start(scale, compacted=True)


def _net_rpc_harness():
    """A live :class:`~repro.net.StoreServer` over the in-memory store
    plus a connected client, torn down by the caller."""
    from repro.cloud import CloudStore
    from repro.net import RemoteCloudStore, ServerThread

    server = ServerThread(CloudStore())
    store = RemoteCloudStore(server.start())
    return server, store


def _wire_bytes(store) -> float:
    counters = store.metrics.registry.counters_snapshot()
    return (counters.get("net.rpc.bytes_sent", 0.0)
            + counters.get("net.rpc.bytes_received", 0.0))


def _op_net_rpc_get(scale: float) -> Tuple[float, float, float]:
    """Per-RPC ``store.get`` round trip over a real TCP connection: the
    framing + JSON + syscall overhead the network layer adds to a read.
    Bytes is the wire volume of one round trip (request and response),
    which is deterministic for a fixed payload."""
    n = max(16, int(64 * scale))
    server, store = _net_rpc_harness()
    try:
        store.put("/bench/obj", b"\x5a" * 4096)
        store.get("/bench/obj")          # warm: connection + handshake
        before = _wire_bytes(store)
        start = time.perf_counter()
        for _ in range(n):
            store.get("/bench/obj")
        elapsed = time.perf_counter() - start
        wire = _wire_bytes(store) - before
        return elapsed / n, wire / n, 0.0
    finally:
        store.close()
        server.stop()


def _op_net_rpc_commit(scale: float) -> Tuple[float, float, float]:
    """Per-RPC atomic batch commit (8 puts of 1 KiB) over TCP — the
    mutation path every admin operation rides.  Fresh fixed-width paths
    each round keep versions at 1, so the wire volume per commit is
    deterministic."""
    from repro.cloud import CloudBatch

    n = max(16, int(64 * scale))
    server, store = _net_rpc_harness()
    try:
        store.head_sequence()            # warm: connection + handshake
        before = _wire_bytes(store)
        start = time.perf_counter()
        for i in range(n):
            batch = CloudBatch()
            for j in range(8):
                batch.put(f"/bench/{i:05d}/{j}", b"\xa5" * 1024)
            store.commit(batch)
        elapsed = time.perf_counter() - start
        wire = _wire_bytes(store) - before
        return elapsed / n, wire / n, 0.0
    finally:
        store.close()
        server.stop()


def _bench_sharded(seed: str, nshards: int):
    from repro.shard import ShardedSystem

    return ShardedSystem(nshards=nshards, partition_capacity=16,
                         params="toy64", seed=f"gate:{seed}")


def _op_shard_create_group(scale: float) -> Tuple[float, float, float]:
    """Per-group bootstrap cost through a 2-shard deployment's router.

    The group path is shared-nothing (each group lives wholly on its
    owning shard; no cross-shard coordination), so the per-op bytes and
    crossings here must equal the single-enclave ``fig6`` numbers per
    group — the deterministic basis of the linear-in-N aggregate
    throughput claim.  Crossings are summed over all shard enclaves
    (the merged telemetry view would overwrite same-named counters)."""
    n = max(8, int(32 * scale))
    groups = 4
    system = _bench_sharded("shard-create", 2)
    try:
        before_bytes = system.telemetry()["metrics"]["cloud.bytes_in"]
        before_crossings = system.total_crossings()
        start = time.perf_counter()
        for k in range(groups):
            system.create_group(f"g{k}",
                                [f"g{k}.u{i}" for i in range(n)])
        elapsed = time.perf_counter() - start
        after_bytes = system.telemetry()["metrics"]["cloud.bytes_in"]
        after_crossings = system.total_crossings()
        return (elapsed / groups, (after_bytes - before_bytes) / groups,
                (after_crossings - before_crossings) / groups)
    finally:
        system.close()


def _op_shard_rekey(scale: float) -> Tuple[float, float, float]:
    """Per-group key rotation through the shard router (the revocation
    cost driver of Fig. 7, here on a 2-shard fleet): same shared-nothing
    argument as ``shard.create_group``."""
    n = max(8, int(32 * scale))
    groups = 4
    system = _bench_sharded("shard-rekey", 2)
    try:
        for k in range(groups):
            system.create_group(f"g{k}",
                                [f"g{k}.u{i}" for i in range(n)])
        before_bytes = system.telemetry()["metrics"]["cloud.bytes_in"]
        before_crossings = system.total_crossings()
        start = time.perf_counter()
        for k in range(groups):
            system.rekey(f"g{k}")
        elapsed = time.perf_counter() - start
        after_bytes = system.telemetry()["metrics"]["cloud.bytes_in"]
        after_crossings = system.total_crossings()
        return (elapsed / groups, (after_bytes - before_bytes) / groups,
                (after_crossings - before_crossings) / groups)
    finally:
        system.close()


def _scale_runner(scale: float):
    """A bounded scale-suite scenario (Zipf roster + churn trace), small
    enough for the gate's repeat loop yet exercising the same phases the
    nightly soak runs at 10^5 users."""
    from repro.workloads.scale import ScaleConfig, ScaleRunner

    config = ScaleConfig(
        users=max(300, int(1200 * scale)),
        seed="gate-scale",
        churn_ops=max(24, int(96 * scale)),
        sync_clients=max(4, int(8 * scale)),
        sync_rounds=2,
        resync_churn=6,
        contention_rounds=1,
        workers=1,
    )
    return ScaleRunner(config)


def _op_scale_churn(scale: float) -> Tuple[float, float, float]:
    """Per-op cost of the scale suite's bursty churn phase: Zipf-
    weighted join/leave bursts through the adaptive administrator
    (inline partition reviews included).  Bytes and crossings are the
    per-op cloud/enclave footprint — deterministic for a fixed seed."""
    runner = _scale_runner(scale)
    try:
        runner.provision()
        ops = len(runner.trace)
        before_bytes, before_crossings = _footprint(runner.system)
        start = time.perf_counter()
        runner.churn()
        elapsed = time.perf_counter() - start
        after_bytes, after_crossings = _footprint(runner.system)
        return (elapsed / ops, (after_bytes - before_bytes) / ops,
                (after_crossings - before_crossings) / ops)
    finally:
        runner.close()


def _op_scale_sync(scale: float) -> Tuple[float, float, float]:
    """Per-client cost of the scale suite's read-heavy phase: a bounded
    client fleet syncs and derives keys, then re-syncs incrementally
    after an interleaved churn slice (the resume path).  Bytes is the
    per-sync cloud read volume."""
    runner = _scale_runner(scale)
    try:
        runner.provision()
        runner.churn()
        metrics = runner.system.telemetry()["metrics"]
        before_bytes = metrics["cloud.bytes_out"]
        start = time.perf_counter()
        runner.sync_storm()
        elapsed = time.perf_counter() - start
        metrics = runner.system.telemetry()["metrics"]
        ops = max(1, runner.phase_stats["sync"].ops)
        return (elapsed / ops,
                (metrics["cloud.bytes_out"] - before_bytes) / ops, 0.0)
    finally:
        runner.close()


#: name -> callable(scale) -> (seconds, bytes, crossings)
OPS: Dict[str, Callable[[float], Tuple[float, float, float]]] = {
    "fig2.encrypt": _op_fig2_encrypt,
    "fig6.create_group": _op_fig6_create_group,
    "fig7.add_user": _op_fig7_add_user,
    "fig7.remove_user": _op_fig7_remove_user,
    "fig8.decrypt": _op_fig8_decrypt,
    "client.sync": _op_client_sync,
    "cold_start.replay": _op_cold_start_replay,
    "cold_start.snapshot": _op_cold_start_snapshot,
    "net.rpc.get": _op_net_rpc_get,
    "net.rpc.commit": _op_net_rpc_commit,
    "scale.churn": _op_scale_churn,
    "scale.sync": _op_scale_sync,
    "shard.create_group": _op_shard_create_group,
    "shard.rekey": _op_shard_rekey,
}


def run_ops(scale: float = 1.0, repeats: int = 3,
            log: Optional[Callable[[str], None]] = None
            ) -> Dict[str, Dict[str, Any]]:
    """Run every gate operation ``repeats`` times; return the op table."""
    results: Dict[str, Dict[str, Any]] = {}
    for name, op in OPS.items():
        samples: List[float] = []
        dims = (0.0, 0.0)
        for _ in range(max(1, repeats)):
            seconds, op_bytes, crossings = op(scale)
            samples.append(seconds)
            dims = (op_bytes, crossings)
        results[name] = {
            "mean": sum(samples) / len(samples),
            "p50": quantile_from_samples(samples, 0.5),
            "p95": quantile_from_samples(samples, 0.95),
            "bytes": dims[0],
            "crossings": dims[1],
            "samples": samples,
        }
        if log is not None:
            log(f"  {name}: mean {results[name]['mean'] * 1e3:.2f} ms, "
                f"{int(dims[0])} B, {int(dims[1])} crossings")
    return results


# ---------------------------------------------------------------------------
# Snapshot files and tolerances
# ---------------------------------------------------------------------------

def current_rev() -> str:
    """Short git revision of the working tree, else ``"dev"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return "dev"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "dev"


def make_snapshot(ops: Dict[str, Dict[str, Any]], rev: str,
                  scale: float, repeats: int) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "rev": rev,
        "params": "toy64",
        "scale": scale,
        "repeats": repeats,
        "ops": ops,
    }


def write_snapshot(snapshot: Dict[str, Any], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")


def load_snapshot(path) -> Dict[str, Any]:
    snapshot = json.loads(Path(path).read_text("utf-8"))
    if snapshot.get("schema") != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: unsupported bench snapshot schema "
            f"{snapshot.get('schema')!r} (expected {SCHEMA_VERSION})"
        )
    return snapshot


def _parse_toml_floats(text: str, table: str) -> Dict[str, float]:
    """Minimal ``key = number`` extraction from one TOML table.

    Fallback for interpreters without :mod:`tomllib` (< 3.11); handles
    exactly the flat float/int assignments ``[tool.repro.bench]`` uses.
    """
    values: Dict[str, float] = {}
    in_table = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            in_table = stripped == f"[{table}]"
            continue
        if not in_table or not stripped or stripped.startswith("#"):
            continue
        match = re.match(r"([A-Za-z0-9_-]+)\s*=\s*([0-9.eE+-]+)", stripped)
        if match:
            try:
                values[match.group(1)] = float(match.group(2))
            except ValueError:
                pass
    return values


def load_tolerances(pyproject: Optional[Path] = None) -> Dict[str, float]:
    """Gate tolerances from ``[tool.repro.bench]``, with defaults."""
    tolerances = dict(DEFAULT_TOLERANCES)
    if pyproject is None:
        pyproject = Path(__file__).resolve().parents[3] / "pyproject.toml"
    if not Path(pyproject).exists():
        return tolerances
    text = Path(pyproject).read_text("utf-8")
    try:
        import tomllib
        table = (tomllib.loads(text).get("tool", {})
                 .get("repro", {}).get("bench", {}))
    except ModuleNotFoundError:
        table = _parse_toml_floats(text, "tool.repro.bench")
    for key in tolerances:
        if key in table:
            tolerances[key] = float(table[key])
    return tolerances


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            tolerances: Optional[Dict[str, float]] = None) -> List[str]:
    """Regression messages (empty = gate passes).

    Wall time compares ``mean`` within ``tolerance_time``; the
    deterministic dimensions compare within ``tolerance_deterministic``
    (both relative).  Operations missing from the current run are
    regressions too — a gate that silently stops measuring an op would
    otherwise rot.  *New* ops absent from the baseline are allowed (the
    baseline is refreshed by committing the new snapshot).
    """
    if tolerances is None:
        tolerances = load_tolerances()
    time_tol = tolerances["tolerance_time"]
    det_tol = tolerances["tolerance_deterministic"]
    problems: List[str] = []
    base_ops = baseline.get("ops", {})
    cur_ops = current.get("ops", {})
    for name, base in sorted(base_ops.items()):
        cur = cur_ops.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        for dim in DETERMINISTIC_DIMS:
            allowed = base[dim] * (1.0 + det_tol)
            if cur[dim] > allowed + 1e-9:
                problems.append(
                    f"{name}: {dim} regressed {base[dim]:.0f} -> "
                    f"{cur[dim]:.0f} (tolerance {det_tol:.0%})"
                )
        allowed = base["mean"] * (1.0 + time_tol)
        if cur["mean"] > allowed:
            problems.append(
                f"{name}: mean time regressed "
                f"{base['mean'] * 1e3:.2f} ms -> "
                f"{cur['mean'] * 1e3:.2f} ms (tolerance {time_tol:.0%})"
            )
    return problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.gate",
        description="headless benchmark run + perf-regression gate",
    )
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_*.json to compare against; "
                             "omit to only record")
    parser.add_argument("--out", default=None,
                        help="snapshot output path "
                             "(default: BENCH_<rev>.json in the cwd)")
    parser.add_argument("--rev", default=None,
                        help="revision label (default: git short rev)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier")
    parser.add_argument("--tolerance-time", type=float, default=None,
                        help="override [tool.repro.bench] tolerance_time")
    parser.add_argument("--trace-out", default=None,
                        help="also record one traced fig6 run as Chrome "
                             "trace_event JSON")
    parser.add_argument("--prom-out", default=None,
                        help="also dump the fig6 system's metrics in "
                             "Prometheus text exposition")
    args = parser.parse_args(argv)

    rev = args.rev or current_rev()
    print(f"bench gate: rev {rev}, scale {args.scale}, "
          f"repeats {args.repeats}")
    ops = run_ops(scale=args.scale, repeats=args.repeats, log=print)
    snapshot = make_snapshot(ops, rev, args.scale, args.repeats)
    out = Path(args.out) if args.out else Path(f"BENCH_{rev}.json")
    write_snapshot(snapshot, out)
    print(f"wrote {out}")

    if args.trace_out or args.prom_out:
        _export_artifacts(args.scale, args.trace_out, args.prom_out)

    if not args.baseline:
        print("no --baseline given; recorded only (gate passes)")
        return 0
    baseline = load_snapshot(args.baseline)
    tolerances = load_tolerances()
    if args.tolerance_time is not None:
        tolerances["tolerance_time"] = args.tolerance_time
    problems = compare(baseline, snapshot, tolerances)
    if problems:
        print(f"\nREGRESSION against {args.baseline} "
              f"(rev {baseline.get('rev')}):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"gate passed against {args.baseline} "
          f"(rev {baseline.get('rev')}, "
          f"time tolerance {tolerances['tolerance_time']:.0%}, "
          f"deterministic tolerance "
          f"{tolerances['tolerance_deterministic']:.0%})")
    return 0


def _export_artifacts(scale: float, trace_out: Optional[str],
                      prom_out: Optional[str]) -> None:
    """One traced fig6 run whose spans/metrics become CI artifacts."""
    from repro import obs

    tracer = obs.tracer()
    tracer.reset()
    obs.enable()
    n = max(8, int(64 * scale))
    system = _bench_system("artifacts", capacity=16)
    try:
        system.admin.create_group("g", [f"u{i}" for i in range(n)])
        for out in (trace_out, prom_out):
            if out:
                Path(out).parent.mkdir(parents=True, exist_ok=True)
        if trace_out:
            written = obs.write_chrome_trace(tracer.spans(), trace_out)
            print(f"wrote {written} trace events -> {trace_out}")
        if prom_out:
            metrics = obs.merge_snapshots(system.metric_sources())
            metrics.update(tracer.registry.snapshot())
            lines = obs.write_prometheus(metrics, prom_out)
            print(f"wrote {lines} metric lines -> {prom_out}")
    finally:
        obs.disable()
        tracer.reset()
        system.close()


if __name__ == "__main__":
    raise SystemExit(main())
