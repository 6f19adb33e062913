"""End-to-end smoke test for the network serving layer (CI: net-smoke).

Drives the full client/server stack the way an operator would deploy it:

1. starts a real ``repro serve`` *subprocess* hosting a
   :class:`~repro.cloud.FileCloudStore` (unless ``--store-url`` points at
   a server that is already running),
2. runs a seeded two-administrator + client-sync workload where both
   administrators and the client reach the store exclusively through
   :class:`~repro.net.RemoteCloudStore`,
3. replays the identical seeded workload against an in-process store and
   asserts the cloud state is byte-identical and the client derives the
   same group key,
4. dumps the client-side ``net.rpc.*`` counters (requests, reconnects,
   wire bytes, latency quantiles) as a JSON artifact for CI to upload.

With ``--trace-out`` the remote phase runs with tracing enabled: the
client propagates its trace context over the wire, the server ships its
handler spans back, and the stitched result is *validated* (client
``net.rpc.*`` and server ``net.server.*`` spans share one trace id,
server roots are parented under the client RPC spans, server spans sit
on negative per-connection lanes) before being written as one Chrome
trace.  Because the reference replay runs untraced, the byte-identity
check doubles as proof that tracing never perturbs store state.  The
live server is also probed (``ops.health``) and its operational
snapshot (``ops.stats``) lands in the report.

Run with::

    python -m repro.workloads.net_smoke [--store-url tcp://...]
        [--seed SEED] [--metrics-out PATH] [--trace-out PATH]
        [--request-log PATH]

Exit status 0 means the smoke test passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.rng import DeterministicRng
from repro.deploy import quickstart_system
from repro.errors import ReproError
from repro.workloads.chaos import cloud_digest

GROUP = "team"


# ---------------------------------------------------------------------------
# Server subprocess management
# ---------------------------------------------------------------------------

class ServedProcess:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cloud_dir: str,
                 request_log: Optional[str] = None) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--cloud", cloud_dir, "--host", "127.0.0.1", "--port", "0"]
        if request_log:
            cmd += ["--request-log", request_log]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.url = self._await_banner()

    def _await_banner(self, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise ReproError(
                    "serve subprocess exited before announcing its URL "
                    f"(exit {self.proc.poll()})")
            if line.startswith("serving "):
                return line.split(None, 1)[1].strip()
        raise ReproError("serve subprocess never announced its URL")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# The seeded workload
# ---------------------------------------------------------------------------

def run_workload(store, seed: str) -> bytes:
    """Seeded two-admin churn + late-client sync against ``store``.

    The second administrator (own enclave on its own device, migrated
    master secret, shared organisational signing key) refreshes between
    operations, then admin 1 deliberately operates on a stale view so
    the OCC retry path runs over whatever store (local or remote) is
    plugged in.  Returns the surviving member's group key."""
    from repro.core.multiadmin import ConcurrentAdministrator
    from repro.sgx.device import SgxDevice

    system = quickstart_system(partition_capacity=4, params="toy64",
                               rng=DeterministicRng(seed), cloud=store,
                               auto_repartition=False)
    second = system.join(
        SgxDevice(rng=DeterministicRng(f"{seed}-b-device")),
        rng=DeterministicRng(f"{seed}-b"))
    try:
        admin1 = ConcurrentAdministrator(system.admin)
        admin2 = ConcurrentAdministrator(second.admin)

        admin1.create_group(GROUP, ["alice", "bob", "carol", "dave"])
        admin2.refresh(GROUP)
        admin2.add_user(GROUP, "erin")
        admin1.add_user(GROUP, "frank")      # stale view -> conflict retry
        admin2.refresh(GROUP)
        admin2.remove_user(GROUP, "bob")
        admin1.rekey(GROUP)                  # stale again -> conflict retry

        client = system.make_client(GROUP, "alice")
        client.sync()
        members = set(system.admin.members(GROUP))
        expected = {"alice", "carol", "dave", "erin", "frank"}
        if members != expected:
            raise ReproError(f"membership diverged: {sorted(members)}")
        return client.current_group_key()
    finally:
        system.close()
        second.close()


def _reference_state(seed: str) -> Tuple[bytes, str]:
    """The same workload, fully in-process."""
    from repro.cloud import CloudStore

    store = CloudStore()
    key = run_workload(store, seed)
    return key, cloud_digest(store)


# ---------------------------------------------------------------------------
# Metrics artifact
# ---------------------------------------------------------------------------

def collect_metrics(store) -> Dict[str, Any]:
    """The client-side ``net.rpc.*`` view of the run."""
    registry = store.metrics.registry
    counters = {name: value
                for name, value in registry.counters_snapshot().items()
                if name.startswith("net.rpc.")}
    full = registry.snapshot()
    latency = {field: full[f"net.rpc.latency_ms.{field}"]
               for field in ("count", "p50", "p95", "max")
               if f"net.rpc.latency_ms.{field}" in full}
    return {"counters": counters, "latency_ms": latency}


# ---------------------------------------------------------------------------
# Stitched-trace validation
# ---------------------------------------------------------------------------

def validate_stitched_trace(spans) -> Dict[str, Any]:
    """Check the merged span set tells one coherent cross-process story.

    Returns a summary dict whose ``problems`` list is empty when the
    stitching invariants hold: client RPC spans on the main lane,
    server handler spans on negative per-connection lanes, both sides
    sharing one trace id, and every server root parented under a
    client span."""
    problems: List[str] = []
    by_id = {s.span_id: s for s in spans}
    client = [s for s in spans if s.name.startswith("net.rpc.")]
    server = [s for s in spans if s.name.startswith("net.server.")]
    if not client:
        problems.append("no client net.rpc.* spans recorded")
    if not server:
        problems.append("no server net.server.* spans shipped back")

    trace_ids = set()
    for s in client:
        tid = s.attrs.get("trace_id")
        if tid:
            trace_ids.add(tid)
        if s.tid != 0:
            problems.append(f"client span {s.name} off the main lane "
                            f"(tid={s.tid})")
    lanes = set()
    for s in server:
        tid = s.attrs.get("trace_id")
        if tid:
            trace_ids.add(tid)
        else:
            problems.append(f"server span {s.name} lost its trace id")
        if s.tid >= 0:
            problems.append(f"server span {s.name} not on a negative "
                            f"connection lane (tid={s.tid})")
        lanes.add(s.tid)
        if s.parent_id is None:
            problems.append(f"server span {s.name} has no parent link")
        else:
            parent = by_id.get(s.parent_id)
            if parent is None:
                problems.append(f"server span {s.name} parent "
                                f"{s.parent_id} missing from the trace")
            elif parent.tid < 0 and parent.name.startswith("net.server."):
                pass                     # nested server span — fine
            elif not parent.name.startswith("net.rpc."):
                problems.append(
                    f"server root {s.name} parented under "
                    f"{parent.name}, expected a net.rpc.* span")
    if len(trace_ids) > 1:
        problems.append(f"spans carry {len(trace_ids)} distinct trace "
                        f"ids: {sorted(trace_ids)}")
    return {
        "client_spans": len(client),
        "server_spans": len(server),
        "connection_lanes": sorted(lanes),
        "trace_id": next(iter(trace_ids)) if len(trace_ids) == 1 else None,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_smoke(store_url: Optional[str] = None, seed: str = "net-smoke",
              metrics_out: Optional[str] = None,
              trace_out: Optional[str] = None,
              request_log: Optional[str] = None) -> Dict[str, Any]:
    from repro import obs
    from repro.net import RemoteCloudStore

    served: Optional[ServedProcess] = None
    tmp: Optional[tempfile.TemporaryDirectory] = None
    if store_url is None:
        tmp = tempfile.TemporaryDirectory(prefix="net-smoke-")
        served = ServedProcess(tmp.name, request_log=request_log)
        store_url = served.url
        print(f"started serve subprocess at {store_url}")

    trace_report: Optional[Dict[str, Any]] = None
    server_report: Dict[str, Any] = {}
    try:
        if trace_out:
            obs.tracer().reset()
            obs.enable()
        store = RemoteCloudStore(store_url)
        remote_key = run_workload(store, seed)
        remote_digest = cloud_digest(store)
        object_count = len(list(store.adversary_view()))
        metrics = collect_metrics(store)
        if trace_out:
            obs.disable()
            spans = obs.tracer().spans()
            trace_report = validate_stitched_trace(spans)
            trace_report["events"] = obs.write_chrome_trace(
                spans, trace_out)
            trace_report["remote_spans_merged"] = int(
                store.metrics.registry.counters_snapshot().get(
                    "net.rpc.remote_spans", 0))
            trace_report["path"] = trace_out
            obs.tracer().reset()
        if "ops" in store.server_features:
            health = store.server_health()
            stats = store.server_stats()
            server_report = {
                "health": health,
                "slo": stats.get("slo", {}),
                "requests": stats.get("requests", {}),
                "request_log": stats.get("request_log", {}),
            }
        store.close()
    finally:
        if trace_out:
            obs.disable()
        if served is not None:
            served.stop()
        if tmp is not None:
            tmp.cleanup()

    local_key, local_digest = _reference_state(seed)
    identical = (remote_key == local_key
                 and remote_digest == local_digest)
    report = {
        "seed": seed,
        "store_url": store_url,
        "objects": object_count,
        "byte_identical": identical,
        "net_rpc": metrics,
        "server": server_report,
    }
    if trace_report is not None:
        report["trace"] = trace_report
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {metrics_out}")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.net_smoke",
        description="network serving layer end-to-end smoke test")
    parser.add_argument("--store-url", default=None,
                        help="use an already-running server instead of "
                             "spawning a serve subprocess")
    parser.add_argument("--seed", default="net-smoke")
    parser.add_argument("--metrics-out", default=None,
                        help="write the net.rpc.* metrics artifact here")
    parser.add_argument("--trace-out", default=None,
                        help="run the remote phase with tracing enabled "
                             "and write the validated stitched Chrome "
                             "trace here")
    parser.add_argument("--request-log", default=None,
                        help="have the serve subprocess append its JSONL "
                             "request log here")
    args = parser.parse_args(argv)

    report = run_smoke(store_url=args.store_url, seed=args.seed,
                       metrics_out=args.metrics_out,
                       trace_out=args.trace_out,
                       request_log=args.request_log)
    rpc = report["net_rpc"]["counters"]
    print(f"workload over {report['store_url']}: "
          f"{int(rpc.get('net.rpc.requests', 0))} RPCs, "
          f"{int(rpc.get('net.rpc.bytes_sent', 0))} B sent, "
          f"{int(rpc.get('net.rpc.bytes_received', 0))} B received")
    failed = False
    trace = report.get("trace")
    if trace is not None:
        print(f"stitched trace: {trace['events']} events "
              f"({trace['client_spans']} client / "
              f"{trace['server_spans']} server spans, lanes "
              f"{trace['connection_lanes']}, trace id "
              f"{trace['trace_id']}) -> {trace['path']}")
        for problem in trace["problems"]:
            print(f"FAIL: trace: {problem}", file=sys.stderr)
            failed = True
    server = report.get("server")
    if server:
        health = server["health"]
        slo_all = server["slo"].get("all", {})
        print(f"server health: {health['status']}  "
              f"requests={server['requests'].get('total', 0)} "
              f"errors={server['requests'].get('errors', 0)} "
              f"p95={slo_all.get('p95_ms', 0.0)} ms")
        if health["status"] != "ok":
            print(f"FAIL: server health is {health['status']}: "
                  f"{health.get('checks', {})}", file=sys.stderr)
            failed = True
    if not report["byte_identical"]:
        print("FAIL: remote cloud state diverged from the in-process "
              "reference", file=sys.stderr)
        failed = True
    else:
        print(f"byte-identical to in-process reference "
              f"({report['objects']} objects)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
