"""Software SGX substrate.

The paper relies on four SGX capabilities; each has a faithful software
equivalent here, preserving the *protocol-level* behaviour the scheme needs:

=====================  =======================================================
SGX capability          Substrate module
=====================  =======================================================
Isolated execution      :mod:`repro.sgx.enclave` — data crosses the trust
                        boundary only through registered ecalls; secret
                        attributes live behind the boundary object.
EPC memory accounting   :mod:`repro.sgx.epc` — 128 MiB limit, page-granular
                        residency, paging penalties (the §III-B argument for
                        minimizing in-enclave metadata).
Sealing                 :mod:`repro.sgx.sealing` — AES-256-GCM under a key
                        derived from (device fuse key, measurement).
Attestation             :mod:`repro.sgx.quote`, :mod:`repro.sgx.ias`,
                        :mod:`repro.sgx.auditor`, :mod:`repro.sgx.attestation`
                        — quotes, a simulated Intel Attestation Service, the
                        Auditor/CA, and the Fig. 3 provisioning flow.
=====================  =======================================================
"""

from repro.sgx.attestation import (
    mutual_attest,
    provision_master_secret,
    provision_user_key,
    setup_trust,
)
from repro.sgx.auditor import Auditor, EnclaveCertificate
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import (
    CrossingMeter,
    Enclave,
    EnclaveHandle,
    EcallRegistry,
    ResultRef,
    ecall,
    trusted_view,
)
from repro.sgx.epc import EpcModel, EpcStats
from repro.sgx.ias import IntelAttestationService
from repro.sgx.quote import Quote

__all__ = [
    "SgxDevice",
    "Enclave",
    "EnclaveHandle",
    "EcallRegistry",
    "CrossingMeter",
    "ResultRef",
    "trusted_view",
    "ecall",
    "EpcModel",
    "EpcStats",
    "Quote",
    "IntelAttestationService",
    "Auditor",
    "EnclaveCertificate",
    "setup_trust",
    "provision_user_key",
    "mutual_attest",
    "provision_master_secret",
]
