"""Sample statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Any, Dict, Sequence

#: Percentiles a timing may be summarised at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def quantile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile ``pct`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def top_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    supported = [pct for pct in LADDER if count * (1 - pct / 100.0) >= 10]
    return supported[-1] if supported else LADDER[0]


def label(pct: float) -> str:
    return f"p{pct:g}"


def timing(samples: Sequence[float], pct: float) -> Dict[str, Any]:
    """A timing metric in ms at ``pct``, with its sample count, whether
    ``pct`` has at least ten samples on either side of it, and the highest
    percentile that has (with its value)."""
    top = top_percentile(len(samples))
    return {
        "value": quantile(samples, pct) * 1e3, "unit": "ms",
        "n": len(samples),
        "supported": len(samples) * min(pct, 100.0 - pct) / 100.0 >= 10,
        "top": label(top), "top_value": quantile(samples, top) * 1e3,
    }


def timings(prefix: str, samples: Sequence[float],
            percentiles: Sequence[float] = (10, 25, 50, 95)
            ) -> Dict[str, Dict[str, Any]]:
    """``{<prefix>_p<pct>_ms: timing}`` for each percentile; nothing for
    a class that was never timed."""
    return {f"{prefix}_{label(pct)}_ms": timing(samples, pct)
            for pct in percentiles if samples}


def scalar(value: float, unit: str, n: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "n": n}


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the inter-quartile
    range with four or more values, else the full range."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)
