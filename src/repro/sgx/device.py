"""Simulated SGX-capable CPU (the platform an enclave loads on).

A device owns:

* a *fuse key* — root of the sealing-key derivation; never leaves the
  device object (the substrate's stand-in for the CPU's sealing fuses);
* an *attestation key* — signs quotes; its public half is registered with
  the simulated Intel Attestation Service at manufacturing time, which is
  exactly the trust relation real EPID/DCAP provisioning establishes;
* the shared :class:`~repro.sgx.epc.EpcModel` for all enclaves it loads.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Optional

from repro.crypto import ecdsa
from repro.crypto.kdf import hkdf
from repro.crypto.rng import Rng, SystemRng
from repro.ec.p256 import P256
from repro.sgx.counters import MonotonicCounterService
from repro.sgx.epc import EpcModel
from repro.sgx.quote import Quote, quote_payload

_device_counter = itertools.count(1)


class SgxDevice:
    """An SGX platform: fuse key + attestation key + EPC.

    ``device_secret`` models the CPU's e-fuses: when provided, the fuse
    and attestation keys are derived from it deterministically, so the
    *same* device (and hence its sealed blobs) survives process restarts —
    required by the persistent CLI deployment, which also hands it
    ``counters`` kept on disk.  Without it, fresh keys are drawn from
    ``rng`` (an anonymous throwaway platform).
    """

    def __init__(self, rng: Optional[Rng] = None,
                 epc: Optional[EpcModel] = None,
                 device_id: Optional[str] = None,
                 device_secret: Optional[bytes] = None,
                 counters: Optional[MonotonicCounterService] = None) -> None:
        self._rng = rng or SystemRng()
        self.epc = epc or EpcModel()
        #: Platform monotonic-counter service.  Hosted on the *device*
        #: (as on real SGX hardware) so counter state — and with it the
        #: rollback protection of sealed blobs — survives enclave
        #: restarts on the same platform (a durable one: the process).
        self.counters = counters or MonotonicCounterService()
        if device_secret is not None:
            digest = hashlib.sha256(device_secret).hexdigest()[:16]
            self.device_id = device_id or f"sgx-device-{digest}"
            self._fuse_key = hkdf(device_secret, 32, info=b"repro:fuse")
            scalar = 1 + int.from_bytes(
                hkdf(device_secret, 48, info=b"repro:attest"), "big"
            ) % (P256.order - 1)
            self._attestation_key = ecdsa.EcdsaPrivateKey(scalar)
        else:
            self.device_id = device_id or f"sgx-device-{next(_device_counter)}"
            self._fuse_key = self._rng.random_bytes(32)
            self._attestation_key = ecdsa.generate_keypair(self._rng)
        #: Public half, to be registered with the IAS (manufacturing step).
        self.attestation_public_key = self._attestation_key.public_key()

    @property
    def rng(self) -> Rng:
        return self._rng

    @rng.setter
    def rng(self, rng: Rng) -> None:
        # Replaceable so deterministic harnesses (the worker-sweep
        # benchmark) can reset the randomness stream between repetitions
        # of the same operation; enclaves read ``device.rng`` per call,
        # so the swap takes effect immediately.
        self._rng = rng

    def sealing_root_key(self) -> bytes:
        """Device fuse key — accessed only by enclaves loaded on this device."""
        return self._fuse_key

    def sign_quote(self, measurement: bytes, report_data: bytes) -> Quote:
        """Produce a quote over (measurement, report_data) — the EREPORT +
        quoting-enclave path collapsed into one step."""
        payload = quote_payload(measurement, report_data, self.device_id)
        return Quote(
            measurement=measurement,
            report_data=report_data,
            device_id=self.device_id,
            signature=self._attestation_key.sign(payload),
        )

    def __repr__(self) -> str:
        return f"SgxDevice({self.device_id})"
