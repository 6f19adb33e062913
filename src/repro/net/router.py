"""Health probing across one or more store servers.

:func:`aggregate_health` is the fleet-wide form of the single-server
``ops.health`` probe: every endpoint is polled and the verdict is the
*worst* answer, mapped onto the same exit-code contract the ``repro
health`` CLI has always used (0 ok, 1 degraded/failing, 2 unreachable).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.errors import ReproError
from repro.net.client import connect_store

#: ops.health statuses ranked by severity; anything unknown ranks worst.
_STATUS_RANK = {"ok": 0, "degraded": 1, "failing": 1, "unreachable": 2}

#: status -> ``repro health`` exit code (worst-of across a fleet).
HEALTH_EXIT_CODES = {"ok": 0, "degraded": 1, "failing": 1, "unreachable": 2}


def probe_health(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """One endpoint's ``ops.health`` answer, with connection failures
    folded into the status (``unreachable``) instead of raised."""
    try:
        store = connect_store(url, timeout=timeout)
    except ReproError as exc:
        return {"url": url, "status": "unreachable", "error": str(exc)}
    try:
        health = store.server_health()
    except ReproError as exc:
        return {"url": url, "status": "unreachable", "error": str(exc)}
    finally:
        store.close()
    health["url"] = url
    return health


def aggregate_health(urls: Sequence[str],
                     timeout: float = 5.0) -> Dict[str, Any]:
    """Probe every endpoint and report the worst status.

    Returns ``{"status": ..., "exit_code": ..., "endpoints": [...]}``
    where ``endpoints`` holds each per-url payload in input order and
    ``exit_code`` follows the CLI contract (0 ok, 1 degraded/failing,
    2 any endpoint unreachable).
    """
    endpoints = [probe_health(url, timeout=timeout) for url in urls]
    worst = max(
        (e.get("status", "unreachable") for e in endpoints),
        key=lambda status: _STATUS_RANK.get(status, 2),
    )
    return {
        "status": worst,
        "exit_code": HEALTH_EXIT_CODES.get(worst, 2),
        "endpoints": endpoints,
    }
