"""Software SGX substrate.

The paper relies on four SGX capabilities; each has a faithful software
equivalent here, preserving the *protocol-level* behaviour the scheme needs.
A *trusted* module is what an enclave build links, and all this package
exports; a *party* module is someone else in Fig. 3 and is imported by
name by the code that plays that party, never by the enclave
(``tests/test_tcb.py`` holds the deny-list).

=====================  =======  ==============================================
SGX capability          Side     Substrate module
=====================  =======  ==============================================
Isolated execution      trusted  :mod:`repro.sgx.enclave` — data crosses the
                                 trust boundary only through registered
                                 ecalls; secret attributes live behind the
                                 boundary object.
EPC memory accounting   trusted  :mod:`repro.sgx.epc` — 128 MiB limit,
                                 page-granular residency, paging penalties
                                 (the §III-B argument for minimizing
                                 in-enclave metadata).
Sealing                 trusted  :mod:`repro.sgx.sealing` — AES-256-GCM under
                                 a key derived from (device fuse key,
                                 measurement).
Attestation             trusted  :mod:`repro.sgx.quote` — quotes, and the
                                 IAS-signed report a relying party verifies.
Attestation             party    :mod:`repro.sgx.ias` (the simulated Intel
                                 Attestation Service), :mod:`repro.sgx.auditor`
                                 (the Auditor/CA), :mod:`repro.sgx.attestation`
                                 (the host's Fig. 3 and MAGE coordinators).
=====================  =======  ==============================================
"""

from repro.sgx.device import SgxDevice
from repro.sgx.enclave import (
    CrossingMeter,
    Enclave,
    EnclaveHandle,
    EcallRegistry,
    ecall,
    trusted_view,
)
from repro.sgx.epc import EpcModel, EpcStats
from repro.sgx.quote import Quote

__all__ = [
    "SgxDevice",
    "Enclave",
    "EnclaveHandle",
    "EcallRegistry",
    "CrossingMeter",
    "trusted_view",
    "ecall",
    "EpcModel",
    "EpcStats",
    "Quote",
]
