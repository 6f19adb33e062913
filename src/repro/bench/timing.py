"""Timing helpers for the benchmark harness."""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple


def time_call(fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Tuple[Any, float]:
    """Run ``fn`` once; return (result, elapsed seconds)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
