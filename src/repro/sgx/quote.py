"""SGX quotes, and the signed reports about them.

A quote binds an enclave's measurement and 64 bytes of enclave-chosen
report data (here: the hash of the enclave's identity public key, then a
peer's challenge nonce or zeros) to a signature by the device's
attestation key, whose provenance the (simulated) Intel Attestation
Service vouches for in a signed :class:`AttestationReport`.  The IAS
(:mod:`repro.sgx.ias`) only *issues* reports; the relying parties — the
enclave's ``register_peer``, the Auditor — verify them, so the type
lives here, with what an enclave links.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.crypto import ecdsa
from repro.errors import AttestationError

REPORT_DATA_SIZE = 64


@dataclass(frozen=True)
class Quote:
    measurement: bytes      # 32 bytes (MRENCLAVE)
    report_data: bytes      # 64 bytes of enclave-chosen data
    device_id: str          # platform identifier (EPID group surrogate)
    signature: bytes        # by the device attestation key

    def signed_payload(self) -> bytes:
        return quote_payload(self.measurement, self.report_data,
                             self.device_id)


def quote_payload(measurement: bytes, report_data: bytes,
                  device_id: str) -> bytes:
    if len(measurement) != 32:
        raise AttestationError("measurement must be 32 bytes")
    if len(report_data) != REPORT_DATA_SIZE:
        raise AttestationError(f"report data must be {REPORT_DATA_SIZE} bytes")
    return (
        b"repro:quote:v1\x00" + measurement + report_data
        + device_id.encode("utf-8")
    )


@dataclass(frozen=True)
class AttestationReport:
    """Signed verdict over a quote (ISV enclave quote status)."""

    quote_status: str          # "OK" | rejection reason
    measurement: bytes
    report_data: bytes
    device_id: str
    timestamp: float
    signature: bytes           # by the IAS report key

    def signed_payload(self) -> bytes:
        body = {
            "status": self.quote_status,
            "measurement": self.measurement.hex(),
            "report_data": self.report_data.hex(),
            "device_id": self.device_id,
            "timestamp": self.timestamp,
        }
        return b"repro:ias-report:v1\x00" + json.dumps(
            body, sort_keys=True
        ).encode("utf-8")

    @property
    def is_ok(self) -> bool:
        return self.quote_status == "OK"

    def verify(self, report_public_key: ecdsa.EcdsaPublicKey) -> None:
        """Relying-party check of the report's signature."""
        try:
            report_public_key.verify(self.signed_payload(), self.signature)
        except Exception as exc:
            raise AttestationError("IAS report signature invalid") from exc
