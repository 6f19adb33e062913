#!/usr/bin/env python3
"""Layered performance ledger — the one command.

Two ways in, one code path:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` runs one
  workload in this process and prints, as the last line of stdout, the
  JSON object ``BENCHMARK.json`` promises: every end-to-end metric with
  tracing off, every per-layer metric in the traced pass (which traces
  every other round, so that the rounds between measure what tracing
  costs).
* ``run.py --seed N [--out FILE]`` (no ``--workload``) runs all four
  workloads, each untraced and then traced, every pass in a fresh
  process through the first form, and collects the details in ``FILE``.

Without ``--seconds`` a workload runs its fixed standard round count, so
two runs at one seed execute identical operations and every count is
exactly reproducible; with ``--seconds`` it starts rounds until the
budget is spent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import adapter  # noqa: E402  (exits non-zero when src/ is absent)
import stats  # noqa: E402
from trace import HARNESS, Recorder  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: An untraced run builds its deployment at least SETUP_MIN times and
#: goes on, up to SETUP_MAX times, until SETUP_SECONDS have been spent on
#: building; ``setup_s`` is the median build.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 50, 3.0
#: Per-layer metrics a workload fills from a named metric (``Workload.INFO``).
INFORMATIONAL = ("op1_p95_ms", "op2_p95_ms", "store_commit_p50_ms",
                 "store_sync_p50_ms", "store_sync_p95_ms")


def load_contract() -> Dict[str, Any]:
    return json.loads((adapter.ROOT / "BENCHMARK.json").read_text("utf-8"))


def environment() -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"WARNING: load average {load:.2f} exceeds nproc {nproc}; "
              "timings will be noisy", file=sys.stderr)
    gc.enable()
    # One CPU for every thread of the run: the load has one request in
    # flight, and on a shared host a wake-up across virtual CPUs waits for
    # the hypervisor to schedule the other one (measured: store_serving
    # 20-35x slower unpinned while the host was stealing, 2x pinned).
    pinned = None
    if hasattr(os, "sched_setaffinity"):
        pinned = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {pinned})
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "cpu_pinned": pinned,
        "loadavg_start": load,
        "repro_version": adapter.VERSION,
        "repro_env_scrubbed": adapter.SCRUBBED_ENV,
        "cloud_latency": "disabled (library default)",
        "gc_enabled": gc.isenabled(),
        "params": "std160",
    }


class Timer:
    """Times operations, counts attempts and failures, and opens a root
    span per operation when a recorder is attached."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.recorder = recorder
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: per finished round, the sample count of every class so far
        self.marks: List[Dict[str, int]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, op_class: str, fn, *args):
        self.attempted += 1
        recorder = self.recorder
        result = None
        if recorder is not None:
            recorder.begin(op_class)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except adapter.ReproError as exc:
            self.check(False, f"{op_class} failed: {exc!r}")
        finally:
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.end()
        self.samples[op_class].append(elapsed)
        return result

    def check(self, ok: bool, message: str) -> None:
        """An output oracle; a failure counts as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def execute(workload: Workload, timers: List[Timer], args) -> Dict[str, Any]:
    """The timed loop — the time budget when one was given, else the
    workload's standard round count — then the end-of-run oracles.  The
    rounds go to ``timers`` in turn."""
    before = workload.counters()
    started = time.perf_counter()
    while (workload.rounds_done < workload.standard_rounds
           if args.seconds is None
           else (workload.rounds_done < workload.least_rounds
                 or time.perf_counter() - started < args.seconds)):
        timer = timers[workload.rounds_done % len(timers)]
        workload.run_round(timer.run, timer.check)
        workload.rounds_done += 1
        timer.marks.append({cls: len(v) for cls, v in timer.samples.items()})
    loop_wall = time.perf_counter() - started
    after = workload.counters()
    workload.check(timers[0].check)
    return {
        "rounds": workload.rounds_done,
        "loop_wall_s": loop_wall,
        "delta": {key: after[key] - before[key] for key in after},
        "gauges": workload.gauges(),
    }


def thin(values: List[float], keep: int = 2000) -> List[float]:
    """At most ``keep`` evenly strided samples, for the result files."""
    stride = -(-len(values) // keep)
    return values[::stride]


def base_detail(workload: Workload, timers: List[Timer],
                ran: Dict[str, Any], args) -> Dict[str, Any]:
    attempted = sum(timer.attempted for timer in timers)
    failed = min(sum(timer.failed for timer in timers), attempted)
    return {
        "workload": workload.name, "seed": args.seed, "scale": workload.scale,
        "trace": bool(args.trace),
        "budget": ({"seconds": args.seconds} if args.seconds is not None
                   else {"rounds": "standard"}),
        "rounds": ran["rounds"],
        "attempted": attempted, "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "errors": [m for timer in timers for m in timer.errors],
        "loop_wall_s": ran["loop_wall_s"],
        "timed_wall_s": sum(sum(v) for timer in timers
                            for v in timer.samples.values()),
        "counters": ran["delta"], "gauges": ran["gauges"],
    }


# -- untraced pass ------------------------------------------------------------

def plain_run(cls, args) -> Dict[str, Any]:
    setups: List[float] = []
    workload = None
    least, most = ((1, 1) if args.scale == "smoke"
                   else (SETUP_MIN, SETUP_MAX))
    while (len(setups) < least
           or (len(setups) < most and sum(setups) < SETUP_SECONDS)):
        if workload is not None:
            workload.close()
        workload = cls(args.seed, args.scale)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    timer = Timer()
    try:
        ran = execute(workload, [timer], args)
        detail = base_detail(workload, [timer], ran, args)
        detail["named"] = workload.named_metrics(timer.samples, timer.marks,
                                                 ran["delta"])
    finally:
        workload.close()
    detail["samples_ms"] = {cls: [round(s * 1e3, 4) for s in thin(values)]
                            for cls, values in timer.samples.items()}
    detail["named"]["setup_s"] = stats.scalar(median(setups), "s", len(setups))
    detail["setup_samples_s"] = setups
    detail["slots"] = {**cls.SLOTS, "setup_s": "setup_s"}
    detail["end_to_end"] = {slot: detail["named"][name]
                            for slot, name in detail["slots"].items()}
    return detail


# -- traced pass --------------------------------------------------------------

def traced_run(cls, args) -> Dict[str, Any]:
    """One deployment, its even rounds traced and its odd rounds not: the
    untraced rounds between say what the same operations cost without
    the spans, whatever the host or the disk did meanwhile.  (The ecall
    wrappers must precede the first enclave, so they stay installed; outside
    a traced operation a wrapper only calls through.)"""
    recorder = Recorder()
    recorder.install(adapter.trace_targets())
    workload = cls(args.seed, args.scale)
    try:
        workload.setup()
        traced, plain = Timer(recorder), Timer()
        try:
            ran = execute(workload, [traced, plain], args)
            detail = base_detail(workload, [traced, plain], ran, args)
            # Only the timings of this are used: the counter deltas span
            # the traced rounds too.
            plain_named = workload.named_metrics(plain.samples, plain.marks,
                                                 ran["delta"])
        finally:
            workload.close()
    finally:
        recorder.remove()

    aggregate = recorder.aggregate()
    detail["spans"] = aggregate["spans"]
    detail["layers"] = layer_table(aggregate)
    detail["per_layer"] = per_layer_metrics(
        cls, aggregate, ran, workload.units(traced.samples),
        workload.units(plain.samples), trace_overhead(traced, plain),
        plain_named)
    if args.chrome_trace:
        detail["chrome_trace_events"] = recorder.write_chrome_trace(
            args.chrome_trace)
    return detail


def trace_overhead(traced: Timer, plain: Timer) -> float:
    """Traced ÷ untraced time of the same operations: per class, the traced
    seconds against what as many untraced calls took in the rounds between.
    A class no untraced round ran (``refresh``'s cold joins) is left out."""
    cost = base = 0.0
    for op_class, values in traced.samples.items():
        reference = plain.samples.get(op_class)
        if reference:
            cost += sum(values)
            base += len(values) * sum(reference) / len(reference)
    if not base:
        raise RuntimeError("the traced pass ran no untraced round")
    return cost / base


def layer_table(aggregate: Dict[str, Any]) -> List[Dict[str, Any]]:
    wall = aggregate["wall_s"]
    rows = [{"layer": layer, "self_s": self_s, "share": self_s / wall}
            for layer, self_s in aggregate["layers"].items()]
    return sorted(rows, key=lambda row: -row["self_s"])


def per_layer_metrics(cls, aggregate, ran, units: int, plain_units: int,
                      overhead: float, plain_named) -> Dict[str, float]:
    """``units`` are the traced operations (the spans cover those);
    the program counters and gauges cover the untraced ones as well."""
    delta, gauges = ran["delta"], ran["gauges"]
    out: Dict[str, float] = {}
    for layer, self_s in aggregate["layers"].items():
        out[f"{layer}.self_ms_per_op"] = self_s * 1e3 / units
    for (layer, entry), row in aggregate["entries"].items():
        if layer == HARNESS:
            continue
        out[f"{layer}.{entry}.calls_per_op"] = row["calls"] / units
        out[f"{layer}.{entry}.ms_per_call"] = (
            row["total_s"] * 1e3 / row["calls"] if row["calls"] else 0.0)

    def per_unit(key: str) -> float:
        return delta.get(key, 0) / (units + plain_units)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    out["sgx.crossings_per_op"] = per_unit("crossings")
    out["core.admin.repartitions"] = delta.get("repartitions", 0)
    out["core.client.hint_hit_ratio"] = ratio(
        delta.get("decrypts", 0) - delta.get("expansions", 0),
        delta.get("decrypts", 0))
    out["cloud.bytes_in_per_op"] = per_unit("cloud_bytes_in")
    out["cloud.bytes_out_per_op"] = per_unit("cloud_bytes_out")
    out["cloud.compactions"] = delta.get("compactions", 0)
    out["cloud.stored_bytes_per_payload_byte"] = ratio(
        gauges.get("stored_bytes", 0), gauges.get("live_payload_bytes", 0))
    out["net.rpcs_per_round"] = per_unit("rpcs")
    out["net.wire_bytes_per_payload_byte"] = ratio(
        delta.get("wire_bytes", 0), delta.get("payload_bytes", 0))
    out["trace_overhead_ratio"] = overhead
    out["residual_ratio"] = (
        aggregate["layers"][HARNESS] / aggregate["wall_s"])
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    # Informational timings of the untraced rounds: the tails behind the
    # first two slots, and the file-backed lane of store_serving.
    for name in INFORMATIONAL:
        out[name] = (plain_named[cls.INFO[name]]["value"]
                     if name in cls.INFO else 0.0)
    return out


# -- output -------------------------------------------------------------------

def print_header(detail: Dict[str, Any]) -> None:
    print(f"== {detail['workload']} seed={detail['seed']} "
          f"scale={detail['scale']} trace={int(detail['trace'])} "
          f"rounds={detail['rounds']} "
          f"timed={detail['timed_wall_s']:.2f}s "
          f"loop={detail['loop_wall_s']:.2f}s")


def print_named(detail: Dict[str, Any], slots: Dict[str, str]) -> None:
    by_name = {name: slot for slot, name in slots.items()}
    by_name["setup_s"] = "setup_s"
    for name, metric in detail["named"].items():
        slot = by_name.get(name, "-")
        line = (f"  {name:<32} {metric['value']:>14.4f} {metric['unit']:<4}"
                f" n={metric['n']:<6}")
        if "top" in metric:
            line += f" {metric['top']}={metric['top_value']:.4f}"
            if not metric["supported"]:
                line += " (percentile has <10 samples beyond it)"
        print(f"{line}  [{slot}]")


def print_errors(detail: Dict[str, Any]) -> None:
    print(f"  {'error_rate':<32} {detail['error_rate']:>14.4f}      "
          f"failed={detail['failed']} attempted={detail['attempted']}")
    for message in detail["errors"]:
        print(f"  ORACLE: {message}")


def print_layers(detail: Dict[str, Any]) -> None:
    print(f"  -- per-layer self time ({detail['spans']} spans)")
    for row in detail["layers"]:
        print(f"  {row['layer']:<14} {row['self_s']:>9.4f} s "
              f"{row['share'] * 100:>6.2f} %")
    for name in ("trace_overhead_ratio", "residual_ratio", "peak_rss_mb",
                 "sgx.crossings_per_op", "core.client.hint_hit_ratio"):
        print(f"  {name:<32} {detail['per_layer'][name]:>12.4f}")


def result_line(detail: Dict[str, Any], contract: Dict[str, Any]) -> str:
    if detail["trace"]:
        values = detail["per_layer"]
        declared = contract["per_layer"]
    else:
        values = {slot: metric["value"]
                  for slot, metric in detail["end_to_end"].items()}
        declared = contract["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in declared}
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    })


def run_one(args) -> int:
    contract = load_contract()
    cls = WORKLOADS[args.workload]
    env = environment()
    if args.trace:
        detail = traced_run(cls, args)
    else:
        detail = plain_run(cls, args)
    detail["env"] = env
    detail["comparable"] = args.scale == "full"
    print_header(detail)
    if args.trace:
        print_layers(detail)
    else:
        print_named(detail, cls.SLOTS)
    print_errors(detail)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail), encoding="utf-8")
    print(result_line(detail, contract))
    return 0 if detail["failed"] == 0 else 1


# -- the suite ----------------------------------------------------------------

def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=adapter.ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(args) -> int:
    """Every workload untraced, then traced, each pass in its own process."""
    suite: Dict[str, Any] = {
        "schema": 1, "rev": git_rev(), "seed": args.seed,
        "comparable": args.scale == "full", "env": environment(),
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(prefix=".ledger_tmp-",
                                     dir=Path.cwd()) as scratch:
        for name in WORKLOADS:
            suite["workloads"][name] = {}
            for trace in (0, 1):
                detail_path = Path(scratch) / f"{name}-{trace}.json"
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(args.seed),
                           "--trace", str(trace), "--detail", str(detail_path)]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                if args.scale == "smoke":
                    command.append("--smoke")
                if trace and args.trace_dir:
                    Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
                    command += ["--chrome-trace", str(
                        Path(args.trace_dir) / f"{name}.trace.json")]
                code = subprocess.run(command).returncode
                status = status or code
                if detail_path.exists():
                    suite["workloads"][name][
                        "traced" if trace else "untraced"] = json.loads(
                            detail_path.read_text("utf-8"))
    if args.out:
        Path(args.out).write_text(json.dumps(suite, separators=(",", ":")),
                                  encoding="utf-8")
        print(f"wrote {args.out}")
    print("suite:", "ok" if status == 0 else "FAILED")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the timed loop; without it "
                             "the fixed standard round count runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", dest="scale", action="store_const",
                        const="smoke", default="full",
                        help="tiny sizes; results are not comparable")
    parser.add_argument("--detail", help="write this pass's details here")
    parser.add_argument("--chrome-trace",
                        help="traced pass: write a Chrome trace here")
    parser.add_argument("--out", help="suite: write all details here")
    parser.add_argument("--trace-dir",
                        help="suite: write one Chrome trace per workload here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
