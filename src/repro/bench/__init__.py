"""Shared benchmark harness utilities (timing, curve fitting, reporting)."""

from repro.bench.fitting import FitResult, extrapolate, fit_power_law
from repro.bench.reporting import cdf_points, format_bytes, format_seconds
from repro.bench.timing import time_call

__all__ = [
    "time_call",
    "FitResult",
    "fit_power_law",
    "extrapolate",
    "cdf_points",
    "format_seconds",
    "format_bytes",
]
