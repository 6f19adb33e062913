"""``FaultyCloudStore`` — a chaos decorator over the ``CloudStore`` contract.

Wraps any store (in-memory :class:`~repro.cloud.CloudStore`,
:class:`~repro.cloud.FileCloudStore`, the network
:class:`~repro.net.RemoteCloudStore`, or another decorator) and consults
a :class:`~repro.faults.FaultInjector` *before* delegating each call.
Injected faults therefore model requests that never reached the store:
an :class:`~repro.errors.UnavailableError` on a write guarantees the
write did not happen, which is exactly the property that makes blanket
retries in :class:`~repro.faults.RetryPolicy` safe.  Read timeouts
(:class:`~repro.errors.StoreTimeoutError`) are additionally injected on
the read round trips.

The delegations are *generated* from the contract metadata in
:mod:`repro.cloud.protocol` rather than hand-written: every name in
:data:`~repro.cloud.ROUND_TRIP_METHODS` gets a guarded wrapper (the
mapping also says which argument is the fault-site path), and every name
in :data:`~repro.cloud.INSPECTION_METHODS` gets an unguarded
pass-through.  A method added to :class:`~repro.cloud.CloudStoreProtocol`
is therefore either classified in the protocol module or the decorator
fails to instantiate (abstract method) — the fault layer can no longer
silently drift from the store API.  ``put`` is the contract's own
one-op commit, so a put is guarded as the ``commit`` it is.

Latency spikes returned by the injector are accounted on the span, never
slept.  ``adversary_view`` is an inspection interface, not a round trip,
and passes through unguarded.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cloud.protocol import (
    INSPECTION_METHODS,
    ROUND_TRIP_METHODS,
    CloudStoreProtocol,
)
from repro.faults.plan import FaultInjector
from repro.obs import span


class FaultyCloudStore(CloudStoreProtocol):
    """``CloudStoreProtocol`` decorator injecting scheduled faults.

    Anything not part of the contract (e.g. ``FileCloudStore.root``) is
    forwarded to the wrapped store via ``__getattr__``, so the decorator
    can stand in for its inner store anywhere in the system.
    """

    def __init__(self, inner: Any, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def _guard(self, op: str, path: str = "") -> None:
        extra_ms = self.injector.store_fault(op, path)
        if extra_ms:
            with span("faults.latency_spike", "faults", op=op,
                      path=path, latency_ms=extra_ms):
                pass

    @property
    def metrics(self):
        return self.inner.metrics

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"FaultyCloudStore({self.inner!r})"


def _guarded(name: str, path_index: Optional[int]) -> Callable:
    """A delegation that consults the injector before the round trip.

    ``path_index`` selects the positional argument reported as the fault
    site.  Iterable arguments (``get_many``'s paths) are materialized
    first so the fault decision precedes any consumption of a lazy
    generator."""

    def method(self, *args, **kwargs):
        if name == "get_many" and args:
            args = (list(args[0]),) + args[1:]
        site = ""
        if path_index is not None and len(args) > path_index:
            site = args[path_index]
        self._guard(name, site)
        return getattr(self.inner, name)(*args, **kwargs)

    method.__name__ = method.__qualname__ = f"FaultyCloudStore.{name}"
    method.__doc__ = f"Guarded delegation of ``{name}`` (generated)."
    return method


def _passthrough(name: str) -> Callable:
    def method(self, *args, **kwargs):
        return getattr(self.inner, name)(*args, **kwargs)

    method.__name__ = method.__qualname__ = f"FaultyCloudStore.{name}"
    method.__doc__ = f"Unguarded inspection pass-through of ``{name}`` (generated)."
    return method


for _name, _path_index in ROUND_TRIP_METHODS.items():
    setattr(FaultyCloudStore, _name, _guarded(_name, _path_index))
for _name in INSPECTION_METHODS:
    setattr(FaultyCloudStore, _name, _passthrough(_name))
# The generated methods satisfy the ABC; clear the abstract set that was
# computed before they were attached.
FaultyCloudStore.__abstractmethods__ = frozenset()
del _name, _path_index
