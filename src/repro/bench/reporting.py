"""Plain-text formatting for benchmark output.

Benchmarks print the same rows/series the paper's figures plot, in a form
that diffs cleanly into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def format_seconds(seconds: float) -> str:
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    if seconds < 7200.0:
        return f"{seconds / 60:.1f} min"
    return f"{seconds / 3600:.2f} h"


def format_bytes(count: float) -> str:
    value = float(count)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{value:.1f} GB"


def cdf_points(samples: Sequence[float],
               steps: int = 20) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for a latency CDF (Fig. 8a)."""
    if not samples:
        return []
    ordered = sorted(samples)
    count = len(ordered)
    points = []
    for i in range(1, steps + 1):
        idx = min(count - 1, max(0, round(i * count / steps) - 1))
        points.append((ordered[idx], i / steps))
    return points
