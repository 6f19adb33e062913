"""The Auditor / Certificate Authority of the trust-establishment protocol.

Fig. 3 of the paper: the enclave sends its fresh public key and quote to
the Auditor (1); the Auditor checks genuineness with IAS (2), compares the
measurement against the expected (audited) one, and issues a certificate
binding the enclave's public key to its audited identity (3); users verify
this certificate before trusting key material from the enclave (4).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Set

from repro.crypto import ecdsa
from repro.crypto.kdf import sha256
from repro.crypto.rng import Rng, SystemRng
from repro.errors import AttestationError
from repro.sgx.ias import IntelAttestationService
from repro.sgx.quote import Quote


@dataclass(frozen=True)
class EnclaveCertificate:
    """CA-signed binding of an enclave public key to an audited measurement."""

    enclave_public_key: bytes   # encoded ECDSA/ECDH public key
    measurement: bytes
    device_id: str
    issued_at: float
    ca_signature: bytes

    def signed_payload(self) -> bytes:
        body = {
            "public_key": self.enclave_public_key.hex(),
            "measurement": self.measurement.hex(),
            "device_id": self.device_id,
            "issued_at": self.issued_at,
        }
        return b"repro:enclave-cert:v1\x00" + json.dumps(
            body, sort_keys=True
        ).encode("utf-8")

    def verify(self, ca_public_key: ecdsa.EcdsaPublicKey) -> None:
        """User-side check (Fig. 3 step 4)."""
        try:
            ca_public_key.verify(self.signed_payload(), self.ca_signature)
        except Exception as exc:
            raise AttestationError("enclave certificate signature invalid") from exc


class Auditor:
    """Attests enclaves against an allow-list of audited measurements and
    acts as the CA for enclave certificates."""

    def __init__(self, ias: IntelAttestationService,
                 rng: Rng | None = None,
                 ca_key: "ecdsa.EcdsaPrivateKey | None" = None) -> None:
        self._ias = ias
        rng = rng or SystemRng()
        # A persisted CA key keeps certificates verifiable across process
        # restarts (see the CLI deployment).
        self._ca_key = ca_key or ecdsa.generate_keypair(rng)
        #: Users pin this to verify enclave certificates.
        self.ca_public_key = self._ca_key.public_key()
        self._expected_measurements: Set[bytes] = set()

    def approve_measurement(self, measurement: bytes) -> None:
        """Record the measurement of an audited (source-reviewed) enclave."""
        if len(measurement) != 32:
            raise AttestationError("measurement must be 32 bytes")
        self._expected_measurements.add(measurement)

    def attest_and_certify(self, quote: Quote,
                           enclave_public_key: bytes) -> EnclaveCertificate:
        """Fig. 3 steps 2-3: IAS check, measurement check, certificate issue.

        The quote's report data must commit to the enclave public key
        (SHA-256), binding the key to the attested enclave instance.
        """
        report = self._ias.verify_quote(quote)
        report.verify(self._ias.report_public_key)
        if not report.is_ok:
            raise AttestationError(
                f"IAS rejected the quote: {report.quote_status}"
            )
        if quote.measurement not in self._expected_measurements:
            raise AttestationError(
                "enclave measurement does not match any audited build"
            )
        expected_commit = sha256(enclave_public_key)
        if quote.report_data[:32] != expected_commit:
            raise AttestationError(
                "quote report data does not commit to the presented key"
            )
        cert = EnclaveCertificate(
            enclave_public_key=enclave_public_key,
            measurement=quote.measurement,
            device_id=quote.device_id,
            issued_at=time.time(),
            ca_signature=b"",
        )
        signature = self._ca_key.sign(cert.signed_payload())
        return EnclaveCertificate(
            enclave_public_key=cert.enclave_public_key,
            measurement=cert.measurement,
            device_id=cert.device_id,
            issued_at=cert.issued_at,
            ca_signature=signature,
        )
