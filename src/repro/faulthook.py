"""The ambient fault door: one process-wide injector slot.

Injection sites that cannot be handed an injector — :func:`crash_point`
calls in the admin plan executor and the file store's commit path, the
worker pool's kill hook, the mutual-attestation driver — read the slot
:func:`install` / :func:`use_faults` fill.  With nothing installed every
hook is a no-op costing one ``None`` check, so production paths pay
nothing.

The slot is duck-typed on :class:`repro.faults.FaultInjector` and this
module imports nothing, which is the point: the sites sit below
:mod:`repro.faults` in the layer order (``par`` and ``sgx`` are linked
into the enclave) and must not pull the fault-plan machinery in with
them.  :mod:`repro.faults` re-exports the five names.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

_ACTIVE: Optional[Any] = None


def install(injector: Optional[Any]) -> None:
    """Install (or clear, with ``None``) the process-wide injector read
    by :func:`crash_point` and the worker pool's kill hook."""
    global _ACTIVE
    _ACTIVE = injector


def active() -> Optional[Any]:
    """The currently installed injector, if any."""
    return _ACTIVE


@contextmanager
def use_faults(injector: Any) -> Iterator[Any]:
    """Scoped :func:`install`; restores the previous injector on exit."""
    previous = _ACTIVE
    install(injector)
    try:
        yield injector
    finally:
        install(previous)


def crash_point(name: str) -> None:
    """Named crash site.  A no-op (one ``None`` check) unless a fault
    injector is installed and its schedule crashes here, in which case
    :class:`~repro.errors.CrashError` unwinds to the chaos driver."""
    if _ACTIVE is not None:
        _ACTIVE.crash_point(name)
