#!/usr/bin/env python3
"""Compare two sets of ledger suite runs, one row per (workload, metric).

    compare.py A.json B.json            # one run a side
    compare.py A1.json,A2.json B1.json,B2.json
    compare.py --check-noise [--seed N] # run the suite twice, compare

A side is one or more ``run.py --out`` files of the same code.  Each row
shows both medians, the bound ``BENCHMARK.json`` fixes for the metric's
end-to-end slot and a verdict:

* ``unchanged``  — B is within the bound of A;
* ``improved`` / ``regressed`` — B is better / worse than A by more than
  the bound;
* ``unresolved`` — the run-to-run spread of a side exceeds the bound, so
  the difference cannot be told from noise (unless every run of B beats
  every run of A, which counts as improved).

Counts that must repeat exactly for a seed (bytes per op, wire bytes per
round, error rate, and in the traced pass every ``calls_per_op`` and the
enclave crossings) are compared for equality when both sides ran the same
seed for the same number of rounds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parents[1]

#: Named metrics that are exact for a seed and a round count.
EXACT = ("cloud_bytes_per_op", "cloud_bytes_read_per_refresh",
         "cloud_bytes_per_user", "wire_bytes_per_round")
#: What --check-noise additionally demands of every timed row.
NOISE_CAP = 0.10


def load_side(spec: str) -> List[Dict[str, Any]]:
    return [json.loads(Path(name).read_text("utf-8"))
            for name in spec.split(",")]


def slot_table() -> Dict[str, Dict[str, Any]]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {entry["name"]: entry for entry in contract["end_to_end"]}


def values(side: List[Dict[str, Any]], workload: str, slot: str
           ) -> List[float]:
    return [run["workloads"][workload]["untraced"]["end_to_end"][slot]["value"]
            for run in side]


def same_inputs(side_a, side_b, workload: str, section: str) -> bool:
    """Did every run execute the same operations (seed and round count)?"""
    inputs = {(run["seed"], run["workloads"][workload][section]["rounds"])
              for run in side_a + side_b
              if section in run["workloads"][workload]}
    return len(inputs) == 1


def verdict(a: List[float], b: List[float], better: str, bound: float,
            exact: bool) -> Tuple[str, float, float]:
    """``(verdict, worsening of B's median as a share of A's, spread)``."""
    mid_a, mid_b = median(a), median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    noise = max(stats.spread(a), stats.spread(b))
    if exact:
        if set(a) == set(b) and len(set(a)) == 1:
            return "unchanged", worse, noise
        return ("regressed" if worse > 0 else "improved"), worse, noise
    if noise > bound:
        b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("improved" if b_wins else "unresolved"), worse, noise
    if worse > bound:
        return "regressed", worse, noise
    if worse < -bound:
        return "improved", worse, noise
    return "unchanged", worse, noise


def compare(side_a, side_b) -> List[Dict[str, Any]]:
    slots = slot_table()
    rows = []
    for workload, passes in side_a[0]["workloads"].items():
        names = passes["untraced"]["slots"]
        fixed = same_inputs(side_a, side_b, workload, "untraced")
        for slot, entry in slots.items():
            a = values(side_a, workload, slot)
            b = values(side_b, workload, slot)
            exact = fixed and names[slot] in EXACT
            result, worse, noise = verdict(
                a, b, entry["better"], entry["bound"], exact)
            rows.append({
                "workload": workload, "metric": names[slot], "slot": slot,
                "unit": entry["unit"], "a": median(a), "b": median(b),
                "bound": 0.0 if exact else entry["bound"],
                "worse": worse, "spread": noise, "verdict": result,
            })
        rates_a = [run["workloads"][workload]["untraced"]["error_rate"]
                   for run in side_a]
        rates_b = [run["workloads"][workload]["untraced"]["error_rate"]
                   for run in side_b]
        rows.append({
            "workload": workload, "metric": "error_rate", "slot": "-",
            "unit": "", "a": max(rates_a), "b": max(rates_b), "bound": 0.0,
            "worse": max(rates_b) - max(rates_a), "spread": 0.0,
            "verdict": ("unchanged" if max(rates_b) == max(rates_a)
                        else "regressed" if max(rates_b) > max(rates_a)
                        else "improved"),
        })
    return rows


def exact_count_mismatches(side_a, side_b) -> List[str]:
    """Traced-pass counts that differ between two runs of the same inputs."""
    problems = []
    first, second = side_a[0], side_b[0]
    for workload, passes in first["workloads"].items():
        other = second["workloads"][workload]
        if "traced" not in passes or "traced" not in other:
            continue
        if not same_inputs(side_a, side_b, workload, "traced"):
            continue
        a, b = passes["traced"]["per_layer"], other["traced"]["per_layer"]
        for name in a:
            if name.endswith(".calls_per_op") or name == "sgx.crossings_per_op":
                if a[name] != b[name]:
                    problems.append(
                        f"{workload}: {name} {a[name]!r} != {b[name]!r}")
    return problems


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<19}{'metric':<31}{'A':>13}{'B':>13} "
          f"{'unit':<5}{'worse':>8}{'bound':>7}{'spread':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<19}{row['metric']:<31}"
              f"{row['a']:>13.4f}{row['b']:>13.4f} {row['unit']:<5}"
              f"{row['worse'] * 100:>7.2f}%{row['bound'] * 100:>6.1f}%"
              f"{row['spread'] * 100:>7.2f}%  {row['verdict']}")


def check_noise(args) -> int:
    """Run the suite twice at one seed; every row must read unchanged."""
    with tempfile.TemporaryDirectory(prefix=".ledger_tmp-",
                                     dir=Path.cwd()) as scratch:
        files = []
        for index in (1, 2):
            out = Path(scratch) / f"run{index}.json"
            command = [sys.executable, str(HERE / "run.py"),
                       "--seed", str(args.seed), "--out", str(out)]
            if subprocess.run(command).returncode != 0:
                print("check-noise: the suite itself failed")
                return 1
            files.append(out)
        side_a, side_b = load_side(str(files[0])), load_side(str(files[1]))
    rows = compare(side_a, side_b)
    print_rows(rows)
    problems = [f"{row['workload']}: {row['metric']} is {row['verdict']} "
                f"({row['worse'] * 100:+.2f} %)"
                for row in rows
                if row["verdict"] != "unchanged"
                or (row["bound"] and abs(row["worse"]) > NOISE_CAP)]
    problems += exact_count_mismatches(side_a, side_b)
    for problem in problems:
        print("NOISE:", problem)
    print("check-noise:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="RUNS",
                        help="two sides, each a comma-separated list of "
                             "run.py --out files")
    parser.add_argument("--check-noise", action="store_true")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.check_noise:
        return check_noise(args)
    if len(args.sides) != 2:
        parser.error("give exactly two sides, or --check-noise")
    side_a, side_b = load_side(args.sides[0]), load_side(args.sides[1])
    rows = compare(side_a, side_b)
    print_rows(rows)
    for problem in exact_count_mismatches(side_a, side_b):
        print("COUNT:", problem)
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
