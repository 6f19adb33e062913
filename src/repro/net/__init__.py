"""Network serving layer for the cloud store (:mod:`repro.net`).

The paper's deployment separates the administrator (and clients) from
the storage provider by a network; this package makes that boundary
real while keeping every store consumer unchanged:

* :mod:`repro.net.wire` — the frame format, typed request/response
  payloads, protocol version and error-code mapping;
* :class:`StoreServer` / :class:`ServerThread` — an asyncio server
  hosting any :class:`~repro.cloud.CloudStoreProtocol`;
* :class:`RemoteCloudStore` — a client implementing the same protocol
  ABC, so ``GroupAdministrator(cloud=RemoteCloudStore(url))`` just
  works;
* :class:`RequestLog` — the opt-in JSONL per-request operational log
  servers write (one record per request, slow-request flagging, bounded
  in-memory tail surfaced through ``ops.stats``).

Observability across the boundary: requests can carry a trace context
(stitched back into one Chrome trace with per-connection lanes), and
every server answers the read-only ``ops.stats`` / ``ops.health``
methods — see ``docs/API.md`` ("Observability over the network").
"""

from repro.net.client import RemoteCloudStore, connect_store, parse_store_url
from repro.net.reqlog import RequestLog
from repro.net.router import aggregate_health, probe_health
from repro.net.server import ServerThread, StoreServer
from repro.net.wire import MAX_FRAME_BYTES, PROTOCOL_VERSION

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "StoreServer",
    "ServerThread",
    "RemoteCloudStore",
    "RequestLog",
    "connect_store",
    "parse_store_url",
    "aggregate_health",
    "probe_health",
]
