"""Command-line deployment of IBBE-SGX.

Turns the library into an operable tool: a *state directory* holds the
persistent identities (device fuses, sealed master secret, system public
key, administrator signing key, auditor/IAS keys) and a *cloud directory*
holds the file-backed store shared between administrator and clients —
mirroring the paper's deployment of an admin machine plus Dropbox.

Usage overview::

    python -m repro.cli init         --state S --cloud C [--params toy64]
                                     [--capacity 4] [--bound 16] [--workers N]
    python -m repro.cli create-group --state S --cloud C GROUP M1 M2 …
    python -m repro.cli add-user     --state S --cloud C GROUP USER
    python -m repro.cli remove-user  --state S --cloud C GROUP USER
    python -m repro.cli rekey        --state S --cloud C GROUP
    python -m repro.cli delete-group --state S --cloud C GROUP
    python -m repro.cli show         --state S --cloud C [GROUP]
    python -m repro.cli provision    --state S --cloud C IDENTITY --out F
    python -m repro.cli client-key   --cloud C --user-key F GROUP IDENTITY
    python -m repro.cli gen-trace    --kind {synthetic,kernel} --out F …
    python -m repro.cli replay       --state S --cloud C --trace F [--workers N]
                                     [--telemetry] [--trace-out F.json]
                                     [--faults SEED] [--compact N]
    python -m repro.cli compact      --cloud C
    python -m repro.cli stats        (--state S --cloud C | --store-url U)
                                     [--format table|json|prom] [--out F]
    python -m repro.cli health       --store-url U [--store-url U2 …]
                                     [--timeout T] [--json]
    python -m repro.cli serve        --cloud C [--host H] [--port P]
                                     [--compact-every N]
                                     [--request-log F] [--slow-ms N]

``serve`` exposes the file-backed store over TCP (``repro.net``
protocol); every command that takes ``--cloud`` alternatively accepts
``--store-url tcp://host:port`` and then operates through a
:class:`~repro.net.RemoteCloudStore` against the running server.

``compact`` folds the store's event history into a snapshot manifest and
truncates the event log (crash-safe; see ``repro.cloud.filestore``), so
late-joining clients and restarted administrators bootstrap in
O(current state + changes since) instead of replaying every event ever
written.  ``replay --compact N`` runs the same compaction automatically
every ``N`` mutations during the replay.

``provision`` runs the Fig. 3 flow (attestation + encrypted channel) and
writes the user's IBBE secret key to a file; ``client-key`` then acts as
that user: it syncs the group directory and prints the derived group key.

Every invocation reconstructs the enclave on the same simulated platform
(the device secret in the state directory models the CPU fuses) and
restores the sealed master secret — no plaintext key material is ever in
the state directory except the user-side files explicitly exported.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from repro import ibbe
from repro.cloud import FileCloudStore
from repro.core import GroupClient
from repro.crypto import ecdsa
from repro.crypto.rng import SystemRng
from repro.deploy import System, assemble_system, fresh_setup, unseal
from repro.errors import ReproError, ValidationError
from repro.pairing import PairingGroup, preset
from repro.pairing.group import G1Element
from repro.sgx import SgxDevice
from repro.sgx.auditor import Auditor
from repro.sgx.counters import MonotonicCounterService
from repro.sgx.ias import IntelAttestationService

_CONFIG = "config.json"
_DEVICE_SECRET = "device-secret.bin"
_SEALED_MSK = "sealed-msk.bin"
_PUBLIC_KEY = "public-key.bin"
_ADMIN_KEY = "admin-signing.key"
_CA_KEY = "auditor-ca.key"
_IAS_KEY = "ias-report.key"
_COUNTERS = "counters.json"


class _DurableCounters(MonotonicCounterService):
    """The device's monotonic counters, kept beside its secret so that
    they outlive the process as the device does.

    Every call reads the file under an exclusive lock, and a new value
    reaches the disk (temp file, ``fsync``, ``os.replace``, ``fsync`` of
    the directory) before the call returns: before the ecall that stamps a sealed blob with it returns,
    so before that blob can reach the store.  A later invocation then
    refuses the blob a revocation replaced, and two invocations on one
    state directory never hand out one value twice.
    """

    def __init__(self, path: Path) -> None:
        super().__init__()
        self._path = path

    def create(self, counter_id: str) -> int:
        return self._locked(super().create, counter_id, write=True)

    def exists(self, counter_id: str) -> bool:
        return self._locked(super().exists, counter_id, write=False)

    def increment(self, counter_id: str) -> int:
        return self._locked(super().increment, counter_id, write=True)

    def read(self, counter_id: str) -> int:
        return self._locked(super().read, counter_id, write=False)

    def _locked(self, method: Callable, counter_id: str, write: bool):
        lock_path = self._path.with_name(self._path.name + ".lock")
        with open(lock_path, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if self._path.exists():
                self._counters = json.loads(self._path.read_text("utf-8"))
            result = method(counter_id)
            if write:
                self._write()
        return result

    def _write(self) -> None:
        """Replace the file, flushed to the disk before and after the
        rename, so that neither a host crash nor a cut write leaves an
        older value or a torn file behind."""
        tmp = self._path.with_name(self._path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as out:
            json.dump(self._counters, out, sort_keys=True)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self._path)
        directory = os.open(self._path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def open_system(state_dir: Path, cloud, workers: Optional[int] = None,
                setup_bound: Optional[int] = None) -> System:
    """Assemble the deployment a state directory describes, against
    ``cloud``.

    The directory holds the persistent identities: the device secret
    (the simulated CPU fuses, so the same platform — and its sealed
    blobs — survives process restarts), the IAS and Auditor keys, and
    the administrator signing key.  The master secret is unsealed from
    it — or, with ``setup_bound`` (``init``), freshly set up for the
    caller to persist.

    ``workers`` configures the enclave's parallel engine for this
    invocation; ``None`` falls back to the count persisted by ``init``
    (which itself defaults to the ``REPRO_WORKERS`` environment
    variable, else serial).  The worker count is a runtime knob — it is
    excluded from the enclave measurement, so any value can unseal the
    deployment's master secret.
    """
    config = json.loads((state_dir / _CONFIG).read_text("utf-8"))
    group = PairingGroup(preset(config["params"]))
    rng = SystemRng()
    if setup_bound is not None:
        msk = fresh_setup(setup_bound)
    else:
        msk = unseal(
            (state_dir / _SEALED_MSK).read_bytes(),
            ibbe.IbbePublicKey.decode(
                (state_dir / _PUBLIC_KEY).read_bytes(), group))
    ias = IntelAttestationService(
        report_key=_load_scalar(state_dir / _IAS_KEY))
    return assemble_system(
        group=group,
        device=SgxDevice(
            rng=rng,
            device_secret=(state_dir / _DEVICE_SECRET).read_bytes(),
            counters=_DurableCounters(state_dir / _COUNTERS)),
        ias=ias,
        auditor=Auditor(ias, ca_key=_load_scalar(state_dir / _CA_KEY)),
        cloud=cloud, rng=rng, msk=msk,
        signing_key=_load_scalar(state_dir / _ADMIN_KEY),
        partition_capacity=config["capacity"],
        workers=workers if workers is not None else config.get("workers"),
    )


def _open_store(args, compact_every: Optional[int] = None):
    """The store an invocation operates on: the file-backed directory
    behind ``--cloud``, or — with ``--store-url`` — a
    :class:`~repro.net.RemoteCloudStore` talking to a ``repro serve``
    instance.  Both satisfy the same ``CloudStoreProtocol``, so every
    command works identically against either."""
    url = getattr(args, "store_url", None)
    if url:
        from repro.net import connect_store

        return connect_store(url)
    if not getattr(args, "cloud", None):
        print("error: one of --cloud or --store-url is required",
              file=sys.stderr)
        raise SystemExit(2)
    return FileCloudStore(Path(args.cloud), compact_every=compact_every)


def _open_system(args, workers: Optional[int] = None,
                 compact_every: Optional[int] = None) -> System:
    return open_system(Path(args.state),
                       _open_store(args, compact_every=compact_every),
                       workers=workers)


def _load_scalar(path: Path) -> ecdsa.EcdsaPrivateKey:
    return ecdsa.EcdsaPrivateKey(int(path.read_text("utf-8").strip(), 16))


def _save_scalar(path: Path, key: ecdsa.EcdsaPrivateKey) -> None:
    path.write_text(f"{key.scalar:064x}\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_init(args) -> int:
    state_dir = Path(args.state)
    state_dir.mkdir(parents=True, exist_ok=True)
    if (state_dir / _SEALED_MSK).exists() and not args.force:
        print(f"error: {state_dir} is already initialized "
              "(use --force to overwrite)", file=sys.stderr)
        return 2
    from repro.par import resolve_workers

    rng = SystemRng()
    workers = resolve_workers(args.workers)
    bound = args.bound or args.capacity
    # Persist the identities, assemble the deployment they describe with
    # a fresh system setup, then persist what the enclave produced.
    (state_dir / _DEVICE_SECRET).write_bytes(rng.random_bytes(32))
    # A new device starts with no counters.
    (state_dir / _COUNTERS).unlink(missing_ok=True)
    for name in (_ADMIN_KEY, _CA_KEY, _IAS_KEY):
        _save_scalar(state_dir / name, ecdsa.generate_keypair(rng))
    (state_dir / _CONFIG).write_text(json.dumps({
        "params": args.params,
        "capacity": args.capacity,
        "bound": bound,
        "workers": workers,
    }, indent=2), encoding="utf-8")
    system = open_system(state_dir, FileCloudStore(Path(args.cloud)),
                         setup_bound=bound)
    (state_dir / _SEALED_MSK).write_bytes(system.sealed_msk)
    (state_dir / _PUBLIC_KEY).write_bytes(system.public_key.encode())
    print(f"initialized: params={args.params}, partition capacity="
          f"{args.capacity}, system bound m={bound}, workers={workers}")
    print(f"enclave measurement: {system.enclave.measurement.hex()}")
    return 0


def cmd_create_group(args) -> int:
    admin = _open_system(args).admin
    state = admin.create_group(args.group, args.members)
    print(f"group {args.group!r}: {len(args.members)} members in "
          f"{state.table.partition_count} partitions")
    return 0


#: Group commands forwarded as-is: subcommand -> (administrator
#: operation, success message).  The table is the whitelist.
_GROUP_COMMANDS = {
    "add-user": ("add_user", "added {user!r} to {group!r}"),
    "remove-user": ("remove_user",
                    "removed {user!r} from {group!r} (group key rotated)"),
    "rekey": ("rekey", "re-keyed {group!r}"),
    "delete-group": ("delete_group",
                     "deleted group {group!r} and its cloud metadata"),
}


def cmd_group_op(args) -> int:
    """Run one of :data:`_GROUP_COMMANDS`; the operation loads the group
    from the cloud on first use."""
    op, message = _GROUP_COMMANDS[args.command]
    admin = _open_system(args).admin
    operands = [args.user] if hasattr(args, "user") else []
    getattr(admin, op)(args.group, *operands)
    print(message.format(**vars(args)))
    return 0


def cmd_show(args) -> int:
    system = _open_system(args)
    admin = system.admin
    if args.group:
        state = admin.ensure_loaded(args.group)
        print(f"group {args.group!r} (epoch {state.epoch}):")
        for pid in state.table.partition_ids:
            members = ", ".join(state.table.members_of(pid))
            print(f"  p{pid}: {members}")
        print(f"  crypto metadata: {state.crypto_footprint()} bytes")
        return 0
    groups = _stored_groups(system)
    if not groups:
        print("no groups")
        return 0
    for group_id in groups:
        try:
            state = admin.ensure_loaded(group_id)
            print(f"{group_id}: {len(state.table)} members, "
                  f"{state.table.partition_count} partitions")
        except ReproError as exc:
            print(f"{group_id}: <unreadable: {exc}>")
    return 0


def _stored_groups(system: System) -> list:
    """Group ids with metadata in the deployment's store."""
    return sorted({path.strip("/").split("/")[0]
                   for path in system.cloud.list_dir("/")})


def cmd_provision(args) -> int:
    system = _open_system(args)
    out = Path(args.out)
    out.write_bytes(system.user_key(args.identity).element.encode())
    # The user also needs the public key and the admin verification key;
    # write a companion bundle.
    bundle = {
        "identity": args.identity,
        "params": system.group.params.name,
        "public_key": system.public_key.encode().hex(),
        "admin_verification_key":
            system.admin.verification_key.encode().hex(),
    }
    out.with_suffix(out.suffix + ".bundle.json").write_text(
        json.dumps(bundle, indent=2), encoding="utf-8"
    )
    print(f"provisioned user key for {args.identity!r} -> {out} "
          f"(+ .bundle.json)")
    return 0


def cmd_client_key(args) -> int:
    key_path = Path(args.user_key)
    bundle = json.loads(
        key_path.with_suffix(key_path.suffix + ".bundle.json")
        .read_text("utf-8")
    )
    if bundle["identity"] != args.identity:
        print("error: user key file belongs to a different identity",
              file=sys.stderr)
        return 2
    group = PairingGroup(preset(bundle["params"]))
    public_key = ibbe.IbbePublicKey.decode(
        bytes.fromhex(bundle["public_key"]), group
    )
    user_key = ibbe.IbbeUserKey(
        identity=args.identity,
        element=G1Element.decode(group, key_path.read_bytes()),
    )
    client = GroupClient(
        group_id=args.group,
        identity=args.identity,
        user_key=user_key,
        public_key=public_key,
        cloud=_open_store(args),
        admin_verification_key=ecdsa.EcdsaPublicKey.decode(
            bytes.fromhex(bundle["admin_verification_key"])
        ),
    )
    client.sync()
    try:
        group_key = client.current_group_key()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(group_key.hex())
    return 0


def cmd_gen_trace(args) -> int:
    """Generate a workload trace file (synthetic or kernel-like)."""
    from repro.workloads import (
        KernelTraceConfig,
        generate_trace,
        save_trace,
        synthesize_kernel_trace,
    )
    from repro.workloads.synthetic import trace_stats

    if args.kind == "synthetic":
        trace = generate_trace(args.ops, args.rate, seed=args.seed)
    else:
        trace = synthesize_kernel_trace(
            KernelTraceConfig(scale=args.scale, seed=args.seed)
        )
    save_trace(args.out, trace)
    print(f"wrote {args.out}: {trace_stats(trace).describe()}")
    return 0


def cmd_replay(args) -> int:
    """Replay a trace file against this deployment and report costs."""
    from repro import obs
    from repro.bench import format_seconds
    from repro.obs import export as obs_export
    from repro.workloads import ReplayEngine, load_trace
    from repro.workloads.replay import IbbeSgxReplayAdapter

    if args.telemetry or args.trace_out:
        obs.enable()
    store = _open_store(args, compact_every=args.compact)
    injector = None
    if args.faults is not None:
        # Seeded transient store faults (outages / read timeouts /
        # latency spikes), absorbed by the retry layers; the same seed
        # replays the identical fault schedule.  Crash/restart chaos
        # needs the recovery driver: python -m repro.workloads.chaos.
        from repro.faults import FaultInjector, FaultPlan, FaultyCloudStore

        injector = FaultInjector(FaultPlan.store_faults(args.faults))
        store = FaultyCloudStore(store, injector)
    system = open_system(Path(args.state), store, workers=args.workers)
    if system.workers > 1:
        system.admin.warm_enclave_workers()
    trace = load_trace(args.trace)

    engine = ReplayEngine(IbbeSgxReplayAdapter(system),
                          group_id=args.group,
                          decrypt_sample_every=args.sample_every)
    report = engine.run(trace)
    print(f"replayed {report.operations_applied} operations "
          f"({report.adds} add / {report.removes} rm, "
          f"{report.skipped} skipped)")
    print(f"admin total: {format_seconds(report.admin_seconds)}")
    if report.decrypt_samples:
        print(f"mean client decrypt: "
              f"{format_seconds(report.mean_decrypt_seconds)}")
    if injector is not None:
        backoff_ms = sum(
            source.snapshot().get("retry.backoff_ms", 0.0)
            for source in system.metric_sources())
        print(f"faults: {len(injector.log)} injected "
              f"(seed {args.faults!r}), "
              f"retry backoff {backoff_ms:.1f}ms accounted")
    if args.telemetry:
        spans = obs.tracer().spans()
        sources = system.metric_sources() + [engine.registry]
        print()
        print("== metrics ==")
        for line in obs_export.format_metrics(obs.merge_snapshots(sources)):
            print(line)
        print()
        print("== time breakdown (self time per category) ==")
        for line in obs_export.breakdown_table(spans):
            print(line)
    if args.trace_out:
        recorded = obs.tracer().spans()
        if args.trace_out.endswith(".json"):
            written = obs_export.write_chrome_trace(recorded, args.trace_out)
            print(f"wrote {written} trace events -> {args.trace_out} "
                  "(load in chrome://tracing or ui.perfetto.dev)")
        else:
            written = obs_export.write_jsonl(recorded, args.trace_out)
            print(f"wrote {written} spans -> {args.trace_out}")
    return 0


def cmd_compact(args) -> int:
    """Compact the file-backed store: fold history into the snapshot
    manifest and truncate the event log.  A store-level operation — no
    enclave or admin state is needed, so only ``--cloud`` is taken."""
    store = _open_store(args)
    truncated = store.compact()
    where = args.cloud or args.store_url
    print(f"compacted {where}: {truncated} events folded into the "
          f"snapshot (horizon {store.snapshot_horizon()}, "
          f"{len(list(store.adversary_view()))} live objects)")
    return 0


def cmd_serve(args) -> int:
    """Serve the file-backed store over TCP.

    Prints the bound URL on the first line (``serving tcp://...``) so a
    supervising process can parse it — an ephemeral ``--port 0`` is the
    default.  With ``--request-log``, every handled request appends one
    JSONL record (see docs/API.md for the schema); ``--slow-ms`` sets
    the threshold for the record's ``slow`` flag.
    """
    import asyncio

    from repro.net import RequestLog, StoreServer

    store = FileCloudStore(Path(args.cloud),
                           compact_every=args.compact_every)
    request_log = None
    if args.request_log:
        request_log = RequestLog(args.request_log, slow_ms=args.slow_ms)

    async def run() -> None:
        server = StoreServer(store, host=args.host, port=args.port,
                             request_log=request_log)
        await server.start()
        print(f"serving {server.url}", flush=True)
        if request_log is not None:
            print(f"request log: {request_log.path} "
                  f"(slow >= {request_log.slow_ms:g} ms)", flush=True)
        try:
            await server.closed.wait()
        finally:
            await server.stop()
        if server.crashed is not None:
            raise server.crashed

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if request_log is not None:
            request_log.close()
    return 0


def _server_stats_table(stats: dict) -> list:
    """Human-readable rendering of an ``ops.stats`` snapshot."""
    from repro.obs import export as obs_export

    conns = stats.get("connections", {})
    reqs = stats.get("requests", {})
    store = stats.get("store", {})
    rlog = stats.get("request_log", {})
    lines = [
        f"server         {stats.get('server', '?')}  "
        f"pid={stats.get('pid', '?')}  "
        f"protocol={stats.get('protocol', '?')}",
        f"uptime         {stats.get('uptime_s', 0.0):.1f} s",
        f"features       {', '.join(stats.get('features', []))}",
        f"connections    active={conns.get('active', 0)}  "
        f"total={conns.get('total', 0)}  "
        f"poll_waiters={conns.get('poll_waiters', 0)}",
        f"requests       total={reqs.get('total', 0)}  "
        f"errors={reqs.get('errors', 0)}  "
        f"bytes_in={reqs.get('bytes_in', 0)}  "
        f"bytes_out={reqs.get('bytes_out', 0)}",
        f"store          type={store.get('type', '?')}  "
        f"head={store.get('head_sequence', '?')}  "
        f"recoveries={store.get('recoveries', 0)}",
    ]
    if rlog.get("enabled"):
        lines.append(
            f"request log    {rlog.get('path') or '<memory>'}  "
            f"records={rlog.get('records', 0)}  "
            f"slow={rlog.get('slow', 0)}  errors={rlog.get('errors', 0)}")
    else:
        lines.append("request log    disabled")
    slo = stats.get("slo", {})
    methods = slo.get("methods", {})
    if methods:
        lines.append("")
        lines.append(f"{'method':<22} {'count':>7} {'errors':>6} "
                     f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'err%':>6}")
        rows = list(methods.items()) + [("(all)", slo.get("all", {}))]
        for name, window in rows:
            if not window:
                continue
            lines.append(
                f"{name:<22} {window.get('count', 0):>7} "
                f"{window.get('errors', 0):>6} "
                f"{window.get('p50_ms', 0.0):>8.3f} "
                f"{window.get('p95_ms', 0.0):>8.3f} "
                f"{window.get('p99_ms', 0.0):>8.3f} "
                f"{100.0 * window.get('error_rate', 0.0):>6.2f}")
    metrics = stats.get("metrics", {})
    if metrics:
        lines.append("")
        lines.extend(obs_export.format_metrics(metrics))
    return lines


def cmd_stats(args) -> int:
    """Dump a metric snapshot: the deployment's merged local registries
    (``--state``), or a live server's operational snapshot fetched over
    the wire via ``ops.stats`` (``--store-url`` alone)."""
    from repro import obs
    from repro.obs import export as obs_export

    if args.store_url and not args.state:
        from repro.net import connect_store

        store = connect_store(args.store_url)
        try:
            stats = store.server_stats()
        finally:
            store.close()
        if args.format == "json":
            text = json.dumps(stats, indent=2, sort_keys=True)
        elif args.format == "prom":
            text = obs_export.metrics_to_prometheus(
                stats.get("metrics", {})).rstrip("\n")
        else:
            text = "\n".join(_server_stats_table(stats))
    else:
        if not args.state:
            raise ValidationError(
                "stats needs --state (local deployment snapshot) or "
                "--store-url (live server snapshot)")
        system = _open_system(args)
        for group_id in _stored_groups(system):
            try:
                system.admin.ensure_loaded(group_id)
            except ReproError:
                pass
        metrics = obs.merge_snapshots(system.metric_sources())
        metrics.update(obs.tracer().registry.snapshot())
        if args.format == "json":
            text = json.dumps(metrics, indent=2, sort_keys=True)
        elif args.format == "prom":
            text = obs_export.metrics_to_prometheus(metrics).rstrip("\n")
        else:
            text = "\n".join(obs_export.format_metrics(metrics))
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(text.splitlines())} lines -> {args.out}")
    else:
        print(text)
    return 0


def cmd_health(args) -> int:
    """Probe one or more servers' ``ops.health`` endpoints.

    Exit status encodes the verdict so the probe slots straight into CI
    and liveness checks: 0 = ok, 1 = degraded/failing, 2 = unreachable.
    ``--store-url`` may be repeated (a sharded fleet): every endpoint is
    probed and the worst answer wins — one dead shard makes the whole
    fleet unhealthy, which is exactly what a liveness check should see.
    """
    from repro.net import aggregate_health

    report = aggregate_health(args.store_url, timeout=args.timeout)
    if args.json:
        payload = (report if len(args.store_url) > 1
                   else report["endpoints"][0])
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for health in report["endpoints"]:
            status = health.get("status", "?")
            if status == "unreachable":
                print(f"unreachable: {health.get('error', '')}",
                      file=sys.stderr)
                continue
            checks = health.get("checks", {})
            detail = "  ".join(
                f"{k}={v}" for k, v in sorted(checks.items()))
            prefix = (f"{health.get('url')}  "
                      if len(report["endpoints"]) > 1 else "")
            print(f"{prefix}{status}  "
                  f"uptime={health.get('uptime_s', 0.0):.1f}s  {detail}")
        if len(report["endpoints"]) > 1:
            print(f"fleet: {report['status']}")
    return report["exit_code"]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="IBBE-SGX group access control (DSN'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def store_options(p):
        p.add_argument("--cloud", default=None,
                       help="cloud directory (file-backed store)")
        p.add_argument("--store-url", default=None, metavar="URL",
                       help="tcp://host:port of a running `repro serve` "
                            "instance (alternative to --cloud)")

    def common(p):
        p.add_argument("--state", required=True,
                       help="state directory (admin-side identities)")
        store_options(p)

    def workers_option(p):
        p.add_argument("--workers", type=int, default=None,
                       help="parallel engine worker count (default: the "
                            "count persisted by init, else REPRO_WORKERS, "
                            "else serial); results are byte-identical for "
                            "any value")

    p = sub.add_parser("init", help="set up a new deployment")
    p.add_argument("--state", required=True,
                   help="state directory (admin-side identities)")
    p.add_argument("--cloud", required=True,
                   help="cloud directory (file-backed store)")
    p.add_argument("--params", default="toy64",
                   choices=["toy64", "std160"],
                   help="pairing preset (std160 = the paper's level)")
    p.add_argument("--capacity", type=int, default=4,
                   help="partition capacity")
    p.add_argument("--bound", type=int, default=None,
                   help="enclave system bound m (default: capacity)")
    workers_option(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("create-group", help="create a group")
    common(p)
    p.add_argument("group")
    p.add_argument("members", nargs="+")
    p.set_defaults(func=cmd_create_group)

    for name, help_text in (("add-user", "add a member"),
                            ("remove-user", "revoke a member"),
                            ("rekey", "rotate a group key"),
                            ("delete-group", "delete a group entirely")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("group")
        if name.endswith("-user"):
            p.add_argument("user")
        p.set_defaults(func=cmd_group_op)

    p = sub.add_parser("show", help="inspect groups")
    common(p)
    p.add_argument("group", nargs="?")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("provision",
                       help="extract a user secret key (Fig. 3 flow)")
    common(p)
    p.add_argument("identity")
    p.add_argument("--out", required=True, help="user key output file")
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("client-key",
                       help="derive a group key as a user")
    store_options(p)
    p.add_argument("--user-key", required=True)
    p.add_argument("group")
    p.add_argument("identity")
    p.set_defaults(func=cmd_client_key)

    p = sub.add_parser("gen-trace", help="generate a workload trace file")
    p.add_argument("--kind", choices=["synthetic", "kernel"],
                   default="synthetic")
    p.add_argument("--ops", type=int, default=200,
                   help="operation count (synthetic)")
    p.add_argument("--rate", type=float, default=0.3,
                   help="revocation rate (synthetic)")
    p.add_argument("--scale", type=float, default=0.005,
                   help="down-scaling factor (kernel)")
    p.add_argument("--seed", default="cli")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("replay",
                       help="replay a trace file against this deployment")
    common(p)
    p.add_argument("--trace", required=True)
    workers_option(p)
    p.add_argument("--group", default="replayed")
    p.add_argument("--sample-every", type=int, default=0,
                   help="sample a client decrypt every N operations")
    p.add_argument("--telemetry", action="store_true",
                   help="enable span tracing and print a metric snapshot "
                        "and per-category time breakdown after the replay")
    p.add_argument("--trace-out", default=None,
                   help="write the recorded spans to this file: Chrome "
                        "trace_event JSON when it ends in .json "
                        "(chrome://tracing / Perfetto), JSONL otherwise")
    p.add_argument("--faults", default=None, metavar="SEED",
                   help="inject seeded transient store faults during the "
                        "replay (outages, read timeouts, latency spikes); "
                        "the retry layers absorb them and the same seed "
                        "reproduces the identical fault schedule")
    p.add_argument("--compact", type=int, default=None, metavar="N",
                   help="automatically compact the store every N "
                        "mutations during the replay (snapshot + event-"
                        "log truncation)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("compact",
                       help="fold store history into a snapshot and "
                            "truncate the event log")
    store_options(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("serve",
                       help="serve the file-backed store over TCP for "
                            "--store-url clients")
    p.add_argument("--cloud", required=True,
                   help="cloud directory (file-backed store) to serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral; the bound URL "
                        "is printed on startup)")
    p.add_argument("--compact-every", type=int, default=None, metavar="N",
                   help="compact the served store automatically every N "
                        "mutations")
    p.add_argument("--request-log", default=None, metavar="PATH",
                   help="append one JSONL record per handled request to "
                        "PATH (request id, trace id, method, bytes, "
                        "latency, outcome, peer)")
    p.add_argument("--slow-ms", type=float, default=250.0,
                   help="latency threshold for the request log's `slow` "
                        "flag (default: 250 ms)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("stats",
                       help="dump a metric snapshot: the deployment's "
                            "merged registries (--state) or a live "
                            "server's operational snapshot (--store-url)")
    p.add_argument("--state", default=None,
                   help="state directory (admin-side identities); omit "
                        "with --store-url to query the live server's "
                        "ops.stats endpoint instead")
    store_options(p)
    p.add_argument("--format", choices=["table", "json", "prom"],
                   default="table",
                   help="output format: human table, JSON object, or "
                        "Prometheus text exposition")
    p.add_argument("--out", default=None,
                   help="write to this file instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("health",
                       help="probe running servers' ops.health "
                            "endpoints (exit 0 ok / 1 degraded-failing / "
                            "2 unreachable; worst answer wins)")
    p.add_argument("--store-url", required=True, metavar="URL",
                   action="append",
                   help="tcp://host:port of a running `repro serve`; "
                        "repeat once per shard to probe a whole fleet")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="connect/request timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the raw health payload as JSON")
    p.set_defaults(func=cmd_health)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. ``repro stats | head``); not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
