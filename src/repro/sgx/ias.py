"""Simulated Intel Attestation Service (IAS).

The real IAS verifies EPID quote signatures against Intel's provisioning
records and returns a signed attestation verification report.  This
simulation keeps the same interface: devices are registered at
"manufacturing" time (their attestation public keys deposited here), quotes
are checked against the registry and a revocation list, and reports
(:class:`repro.sgx.quote.AttestationReport`) are signed with the IAS
report key so relying parties (the Auditor, a peer enclave) can verify
their provenance offline.
"""

from __future__ import annotations

import time
from typing import Dict, Set

from repro.crypto import ecdsa
from repro.crypto.rng import Rng, SystemRng
from repro.errors import AttestationError
from repro.sgx.quote import AttestationReport, Quote


class IntelAttestationService:
    """Registry of genuine platforms + quote verification service."""

    def __init__(self, rng: Rng | None = None,
                 report_key: "ecdsa.EcdsaPrivateKey | None" = None) -> None:
        rng = rng or SystemRng()
        # A persisted report key lets relying parties pin one IAS identity
        # across process restarts (see the CLI deployment).
        self._report_key = report_key or ecdsa.generate_keypair(rng)
        #: Relying parties pin this key to verify reports.
        self.report_public_key = self._report_key.public_key()
        self._devices: Dict[str, ecdsa.EcdsaPublicKey] = {}
        self._revoked: Set[str] = set()

    # -- manufacturing / lifecycle ------------------------------------------

    def register_device(self, device_id: str,
                        attestation_public_key: ecdsa.EcdsaPublicKey) -> None:
        """Provision a platform (performed when the CPU is manufactured)."""
        if device_id in self._devices:
            raise AttestationError(f"device {device_id!r} already registered")
        self._devices[device_id] = attestation_public_key

    def revoke_device(self, device_id: str) -> None:
        """Add a platform to the revocation list (compromised key)."""
        self._revoked.add(device_id)

    # -- verification ----------------------------------------------------------

    def verify_quote(self, quote: Quote) -> AttestationReport:
        """Check a quote and return a signed report (never raises for a
        *failed* verification — the verdict is in ``quote_status``)."""
        status = "OK"
        key = self._devices.get(quote.device_id)
        if key is None:
            status = "UNKNOWN_DEVICE"
        elif quote.device_id in self._revoked:
            status = "DEVICE_REVOKED"
        elif not key.is_valid(quote.signed_payload(), quote.signature):
            status = "SIGNATURE_INVALID"
        report = AttestationReport(
            quote_status=status,
            measurement=quote.measurement,
            report_data=quote.report_data,
            device_id=quote.device_id,
            timestamp=time.time(),
            signature=b"",
        )
        signature = self._report_key.sign(report.signed_payload())
        return AttestationReport(
            quote_status=report.quote_status,
            measurement=report.measurement,
            report_data=report.report_data,
            device_id=report.device_id,
            timestamp=report.timestamp,
            signature=signature,
        )
