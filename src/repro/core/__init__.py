"""The IBBE-SGX group access control system (paper §V).

* :mod:`repro.core.partitions` — the partitioning mechanism (§IV-C).
* :mod:`repro.core.metadata` — group metadata records (framed with
  :mod:`repro.serialize`, enveloped with :mod:`repro.crypto.envelope`).
* :mod:`repro.core.admin` — administrator API (Algorithms 1-3 + heuristics).
* :mod:`repro.core.client` — user API (listen, decrypt).
* :mod:`repro.core.cache` — admin/client local metadata caches.
* :mod:`repro.core.adaptive` — dynamic partition sizing (paper future work).
"""

from repro.core.admin import GroupAdministrator
from repro.core.client import GroupClient
from repro.core.partitions import PartitionTable

__all__ = ["GroupAdministrator", "GroupClient", "PartitionTable"]
