"""Smoke test of the ledger: all four workloads, the traced pass and
``compare.py`` at ``--smoke`` scale (tiny op counts, results stamped
``"comparable": false``).

Outside tier-1 ``testpaths``; run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    """Two smoke suite runs at one seed."""
    work = tmp_path_factory.mktemp("ledger")
    files = []
    for index in (1, 2):
        out = work / f"run{index}.json"
        done = run("run.py", "--smoke", "--seed", "11", "--out", str(out),
                   "--trace-dir", str(work / f"traces{index}"), cwd=work)
        assert done.returncode == 0, done.stdout + done.stderr
        files.append(out)
    return work, files


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in CONTRACT["end_to_end"])}]
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_suite_runs_every_workload_both_passes(suites):
    work, files = suites
    suite = json.loads(files[0].read_text("utf-8"))
    assert suite["comparable"] is False
    assert list(suite["workloads"]) == WORKLOADS
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    for name, passes in suite["workloads"].items():
        untraced, traced = passes["untraced"], passes["traced"]
        assert untraced["error_rate"] == 0 and traced["failed"] == 0, name
        assert set(untraced["end_to_end"]) == end_to_end
        assert all(m["value"] > 0 for m in untraced["end_to_end"].values())
        assert per_layer <= set(traced["per_layer"]), name
        assert traced["per_layer"]["residual_ratio"] <= 0.03, name
        # Smoke passes are too short to hold the full-scale 1.05; this
        # only catches a wrapper that got expensive.
        assert 0.5 < traced["per_layer"]["trace_overhead_ratio"] < 1.5, name
        trace = json.loads(
            (work / "traces1" / f"{name}.trace.json").read_text("utf-8"))
        assert trace["traceEvents"], name


def test_predicted_zeros_hold(suites):
    _, files = suites
    workloads = json.loads(files[0].read_text("utf-8"))["workloads"]
    layers = {name: passes["traced"]["per_layer"]
              for name, passes in workloads.items()}
    for name in ("churn", "provision_failover"):
        assert layers[name]["pairing.pair.calls_per_op"] == 0
    for name in ("churn", "refresh", "provision_failover"):
        net = {k: v for k, v in layers[name].items() if k.startswith("net.")}
        assert net and not any(net.values()), name
    crypto_side = [k for k in layers["store_serving"]
                   if k.split(".")[0] in ("ec", "pairing", "ibbe", "crypto",
                                          "sgx", "enclave_app", "core",
                                          "shard", "par")]
    assert crypto_side
    assert not any(layers["store_serving"][k] for k in crypto_side)
    # The layer each workload exists for does the most work there.
    top = {name: [row["layer"] for row in passes["traced"]["layers"][:2]]
           for name, passes in workloads.items()}
    assert top["churn"][0] == "ec" and top["refresh"][0] == "ec"
    assert sorted(top["store_serving"]) == ["cloud", "net"]
    # Both served stores did the serving.
    for entry in ("commit", "poll_dir", "get_many",
                  "file_commit", "file_poll_dir", "file_get_many"):
        assert layers["store_serving"][f"cloud.{entry}.calls_per_op"] > 0
    assert layers["store_serving"]["cloud.stored_bytes_per_payload_byte"] > 1


def test_compare_reads_two_runs_and_counts_repeat_exactly(suites):
    work, files = suites
    done = run("compare.py", str(files[0]), str(files[1]), cwd=work)
    assert done.returncode in (0, 1), done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines()
            if line.split() and line.split()[0] in WORKLOADS]
    per_workload = len(CONTRACT["end_to_end"]) + 1      # + error_rate
    assert len(rows) == per_workload * len(WORKLOADS)
    # Same seed, same fixed rounds: every count is exactly reproducible.
    assert "COUNT:" not in done.stdout
    for metric in ("cloud_bytes_per_op", "wire_bytes_per_round",
                   "error_rate"):
        row = next(line for line in rows if metric in line)
        assert row.endswith("unchanged"), row


def test_driver_form_prints_the_contract_line(tmp_path):
    done = run("run.py", "--workload", "store_serving", "--smoke",
               "--seed", "3", "--seconds", "0.2", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [
        m["name"] for m in CONTRACT["end_to_end"]]
    assert list(tmp_path.iterdir()) == []       # nothing left behind
