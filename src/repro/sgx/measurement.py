"""Enclave measurement (MRENCLAVE equivalent).

On real SGX, MRENCLAVE is a SHA-256 over the enclave's initial pages and
layout.  In this substrate an enclave's identity is the Python class
implementing it plus a declared code version and configuration, hashed into
a 32-byte measurement.  Changing any of these (i.e. running different code)
changes the measurement, which is what the Auditor checks before certifying
an enclave (Fig. 3, step 2-3).

A class's source is read once per class object, so every later load
hashes the same bytes without re-parsing the module.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from typing import Mapping


@functools.lru_cache(maxsize=None)
def _class_source(enclave_class: type) -> bytes:
    try:
        return inspect.getsource(enclave_class).encode("utf-8")
    except (OSError, TypeError):
        return b""


def measure_enclave(enclave_class: type, version: str,
                    config: Mapping[str, object] | None = None) -> bytes:
    """Compute the 32-byte measurement of an enclave class.

    Includes the class's source code when available so that code edits are
    reflected in the measurement, like page contents are in MRENCLAVE.
    """
    hasher = hashlib.sha256()
    hasher.update(b"repro:mrenclave:v1\x00")
    hasher.update(enclave_class.__module__.encode("utf-8") + b"\x00")
    hasher.update(enclave_class.__qualname__.encode("utf-8") + b"\x00")
    hasher.update(version.encode("utf-8") + b"\x00")
    hasher.update(_class_source(enclave_class))
    for key in sorted(config or {}):
        hasher.update(f"{key}={config[key]!r}\x00".encode("utf-8"))
    return hasher.digest()
