"""Cryptographic primitives built from scratch for the reproduction.

Contents:

* :mod:`repro.crypto.rng` — system / deterministic randomness sources.
* :mod:`repro.crypto.aes` — AES-128/192/256 block cipher (FIPS-197).
* :mod:`repro.crypto.modes` — CTR and GCM modes of operation.
* :mod:`repro.crypto.kdf` — SHA-256 based HKDF and hashing helpers.
* :mod:`repro.crypto.ecies` — ECIES over NIST P-256 (HE-PKI baseline primitive).
* :mod:`repro.crypto.ecdsa` — ECDSA over NIST P-256 (signatures for admins,
  quotes, IAS reports and CA certificates).
* :mod:`repro.crypto.envelope` — AES-GCM wrapping of the group key under the
  hashed partition broadcast key (Algorithms 1-3's ``y_p``).
"""

from repro.crypto.rng import DeterministicRng, Rng, SystemRng

__all__ = ["Rng", "SystemRng", "DeterministicRng"]
