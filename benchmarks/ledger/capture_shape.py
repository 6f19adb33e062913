#!/usr/bin/env python3
"""Measure the store-traffic shape ``store_serving`` replays.

    python3 benchmarks/ledger/capture_shape.py [--seed N]

Builds the ``churn`` deployment (std160, 256 members, capacity 32), runs
its warm-up plus one revocation, and prints what that revocation's commit
holds in the cloud: the signed descriptor, one signed record per
partition and the sealed group key.  The numbers are frozen in
``workloads.StoreServing.SHAPE``; re-run this when the metadata encoding
changes and update them in a change of their own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import mean

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import Churn, untimed  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    churn = Churn(args.seed)
    churn.setup()
    try:
        commits = churn.system.cloud.metrics.batch_commits
        churn._remove(untimed)
        assert churn.system.cloud.metrics.batch_commits == commits + 1
        sizes = {obj.path: len(obj.data)
                 for obj in churn.system.cloud.adversary_view()}
    finally:
        churn.close()
    records = [size for path, size in sizes.items()
               if path.rsplit("/", 1)[1].startswith("p")]
    shape = dict(
        descriptor_bytes=sizes[f"/{Churn.GID}/descriptor"],
        record_bytes=round(mean(records)),
        records=len(records),
        sealed_bytes=sizes[f"/{Churn.GID}/sealed-gk"],
    )
    print("one revocation commit =", shape["records"] + 2, "puts")
    print("SHAPE =", shape)
    return 0


if __name__ == "__main__":
    sys.exit(main())
