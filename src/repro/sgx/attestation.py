"""End-to-end trust establishment and key provisioning (paper Fig. 3).

Protocol driver functions tying together the enclave, the Auditor/CA, the
IAS and the user:

1. The enclave generates an identity keypair inside the boundary and emits
   its public key plus a quote whose report data commits to that key.
2. The Auditor checks the quote with IAS and the measurement against the
   audited build, then issues an :class:`EnclaveCertificate`.
3. Users verify the certificate against the pinned CA key.
4. Users request their IBBE secret key over an encrypted channel bound to
   the certified enclave key (ECIES in lieu of TLS), so only the attested
   enclave can read the request and only the requesting user can read the
   response.

The enclave side of steps 1 and 4 is part of the enclave application's
ecall contract (see :mod:`repro.enclave_app.ibbe_enclave`):

* ``get_public_key() -> bytes``
* ``get_attestation_quote(nonce=b"") -> Quote`` — the Auditor's quote
  carries no nonce, a peer's (MAGE, below) echoes the peer's challenge
* ``provision_user_key(request: bytes) -> bytes`` — ECIES envelope in,
  ECIES envelope out.
"""

from __future__ import annotations

import json

from repro import faulthook
from repro.crypto import ecdsa, ecies
from repro.crypto.rng import Rng
from repro.errors import AttestationError
from repro.sgx.auditor import Auditor, EnclaveCertificate
from repro.sgx.enclave import Enclave


def setup_trust(enclave: Enclave, auditor: Auditor) -> EnclaveCertificate:
    """Fig. 3 steps 1-3: attest ``enclave`` and obtain its certificate."""
    public_key = enclave.call("get_public_key")
    quote = enclave.call("get_attestation_quote")
    return auditor.attest_and_certify(quote, public_key)


def provision_user_key(
    enclave: Enclave,
    certificate: EnclaveCertificate,
    ca_public_key: ecdsa.EcdsaPublicKey,
    identity: str,
    rng: Rng,
) -> bytes:
    """Fig. 3 step 4, run from the user's perspective.

    Verifies the enclave certificate, sends an encrypted key request, and
    returns the decrypted IBBE user secret key bytes.  Raises
    :class:`AttestationError` if any link of the trust chain fails.
    """
    certificate.verify(ca_public_key)
    if certificate.enclave_public_key != enclave.call("get_public_key"):
        raise AttestationError(
            "enclave presented a key different from its certificate"
        )
    enclave_key = ecies.EciesPublicKey.decode(certificate.enclave_public_key)
    response_key = ecies.generate_keypair(rng)
    request = json.dumps({
        "identity": identity,
        "response_key": response_key.public_key().encode().hex(),
    }).encode("utf-8")
    sealed_request = enclave_key.encrypt(request, rng, aad=b"usk-request")
    sealed_response = enclave.call("provision_user_key", sealed_request)
    return response_key.decrypt(sealed_response, aad=b"usk-response")


# ---------------------------------------------------------------------------
# MAGE-style mutual attestation (no trusted third party)
# ---------------------------------------------------------------------------
#
# The Fig. 3 flow above is how *users* come to trust an enclave: the
# Auditor/CA says which measurements are good.  Between enclaves — a
# further administrator, a shard — there is no third party, following
# MAGE (arXiv:2008.09501): two enclaves of the same build attest *each
# other*.  The untrusted coordinator below only ferries offers, quotes
# and IAS reports between the parties — every security-relevant check
# (report signature under the pinned IAS key, measurement equality with
# the verifier's OWN measurement, key commitment, nonce freshness) runs
# inside the enclave boundary in ``register_peer``.  The coordinator
# consults the ambient fault injector at each step, so seeded chaos
# plans can break the handshake mid-flight; a
# TransientAttestationError is retryable by contract.


def _attestation_fault(site: str) -> None:
    injector = faulthook.active()
    if injector is not None:
        injector.attestation_fault(site)


def mutual_attest(enclave_a: Enclave, enclave_b: Enclave, ias) -> None:
    """Run the MAGE mutual-attestation handshake between two enclaves.

    On return, each enclave holds the other in its peer registry (the
    precondition for ``export_master_secret_to_peer`` /
    ``import_master_secret_from_peer``).  Raises
    :class:`~repro.errors.AttestationError` if either side rejects;
    raises the *transient* subclass when an injected fault interrupts a
    step, in which case the whole exchange is safe to rerun (stale
    issued nonces are never answered and age out).
    """
    _attestation_fault("peer-offer")
    offer_a = enclave_a.call("peer_offer")
    offer_b = enclave_b.call("peer_offer")
    quote_a = enclave_a.call("get_attestation_quote", offer_b["nonce"])
    quote_b = enclave_b.call("get_attestation_quote", offer_a["nonce"])
    _attestation_fault("ias-report")
    report_a = ias.verify_quote(quote_a)
    report_b = ias.verify_quote(quote_b)
    _attestation_fault("register-peer")
    enclave_a.call("register_peer", report_b, offer_b["public_key"])
    enclave_b.call("register_peer", report_a, offer_a["public_key"])


def provision_master_secret(source: Enclave, target: Enclave, ias,
                            public_key) -> bytes:
    """Mutually attest ``source`` and ``target``, migrate the master
    secret from the former to the latter, and return the target's own
    sealed copy (so it can later ``restore_system`` after a restart
    without repeating the migration).
    """
    mutual_attest(source, target, ias)
    source_key = source.call("get_public_key")
    target_key = target.call("get_public_key")
    _attestation_fault("msk-transfer")
    blob = source.call("export_master_secret_to_peer", target_key)
    return target.call("import_master_secret_from_peer", blob, public_key,
                       source_key)
