"""Attestation chain tests: quotes, IAS, auditor/CA, provisioning (Fig. 3)."""

import pytest

from repro.crypto import ecdsa
from repro.crypto.rng import DeterministicRng
from repro.errors import AttestationError, EnclaveError
from repro.pairing import PairingGroup
from repro.sgx.auditor import Auditor
from repro.sgx.counters import MonotonicCounterService
from repro.sgx.device import SgxDevice
from repro.sgx.ias import IntelAttestationService
from repro.enclave_app import IbbeEnclave
from repro.sgx.attestation import provision_user_key, setup_trust


@pytest.fixture()
def world(group):
    """A fresh device + IAS + auditor + loaded IBBE enclave."""
    rng = DeterministicRng("attest-world")
    device = SgxDevice(rng=rng)
    ias = IntelAttestationService(rng=rng)
    ias.register_device(device.device_id, device.attestation_public_key)
    enclave = IbbeEnclave.load(device, {"pairing_group": group})
    auditor = Auditor(ias, rng=rng)
    return device, ias, enclave, auditor, rng


class TestQuotes:
    def test_quote_verifies(self, world):
        device, ias, enclave, auditor, rng = world
        quote = enclave.call("get_attestation_quote")
        report = ias.verify_quote(quote)
        assert report.is_ok
        report.verify(ias.report_public_key)

    def test_unknown_device_rejected(self, world, group):
        _, ias, _, _, rng = world
        rogue_device = SgxDevice(rng=rng)  # never registered
        rogue = IbbeEnclave.load(rogue_device, {"pairing_group": group})
        report = ias.verify_quote(rogue.call("get_attestation_quote"))
        assert report.quote_status == "UNKNOWN_DEVICE"

    def test_revoked_device_rejected(self, world):
        device, ias, enclave, _, _ = world
        ias.revoke_device(device.device_id)
        report = ias.verify_quote(enclave.call("get_attestation_quote"))
        assert report.quote_status == "DEVICE_REVOKED"

    def test_forged_signature_rejected(self, world):
        device, ias, enclave, _, _ = world
        quote = enclave.call("get_attestation_quote")
        from repro.sgx.quote import Quote
        forged = Quote(
            measurement=quote.measurement,
            report_data=quote.report_data,
            device_id=quote.device_id,
            signature=bytes(64),
        )
        assert ias.verify_quote(forged).quote_status == "SIGNATURE_INVALID"

    def test_report_signature_checked(self, world):
        device, ias, enclave, _, rng = world
        report = ias.verify_quote(enclave.call("get_attestation_quote"))
        wrong_key = ecdsa.generate_keypair(rng).public_key()
        with pytest.raises(AttestationError):
            report.verify(wrong_key)

    def test_nonce_is_absent_or_32_bytes(self, world):
        _, _, enclave, _, _ = world
        for junk in (b"short", bytes(33), "0" * 32, 32):
            with pytest.raises(AttestationError, match="32 bytes"):
                enclave.call("get_attestation_quote", junk)

    def test_double_registration_rejected(self, world):
        device, ias, _, _, _ = world
        with pytest.raises(AttestationError):
            ias.register_device(device.device_id,
                                device.attestation_public_key)


class TestAuditor:
    def test_certify_happy_path(self, world):
        _, _, enclave, auditor, _ = world
        auditor.approve_measurement(enclave.measurement)
        cert = setup_trust(enclave, auditor)
        cert.verify(auditor.ca_public_key)
        assert cert.measurement == enclave.measurement

    def test_unapproved_measurement_rejected(self, world):
        _, _, enclave, auditor, _ = world
        with pytest.raises(AttestationError, match="measurement"):
            setup_trust(enclave, auditor)

    def test_report_data_must_commit_to_key(self, world):
        _, _, enclave, auditor, _ = world
        auditor.approve_measurement(enclave.measurement)
        quote = enclave.call("get_attestation_quote")
        with pytest.raises(AttestationError, match="commit"):
            auditor.attest_and_certify(quote, b"some other key")

    def test_nonce_carrying_quote_is_certified(self, world):
        """One quote ecall serves both verifiers: the Auditor reads the
        key commitment only, so a peer's challenge in the second half of
        the report data does not disturb it."""
        _, _, enclave, auditor, _ = world
        auditor.approve_measurement(enclave.measurement)
        quote = enclave.call("get_attestation_quote", bytes(range(32)))
        assert quote.report_data[32:] == bytes(range(32))
        cert = auditor.attest_and_certify(
            quote, enclave.call("get_public_key"))
        cert.verify(auditor.ca_public_key)

    def test_cert_tamper_detected(self, world):
        _, _, enclave, auditor, _ = world
        auditor.approve_measurement(enclave.measurement)
        cert = setup_trust(enclave, auditor)
        from dataclasses import replace
        forged = replace(cert, device_id="evil-device")
        with pytest.raises(AttestationError):
            forged.verify(auditor.ca_public_key)

    def test_wrong_ca_key_detected(self, world, rng):
        _, _, enclave, auditor, _ = world
        auditor.approve_measurement(enclave.measurement)
        cert = setup_trust(enclave, auditor)
        with pytest.raises(AttestationError):
            cert.verify(ecdsa.generate_keypair(rng).public_key())


class TestProvisioning:
    def test_user_receives_key(self, world):
        _, _, enclave, auditor, rng = world
        auditor.approve_measurement(enclave.measurement)
        cert = setup_trust(enclave, auditor)
        enclave.call("setup_system", 8)
        raw = provision_user_key(enclave, cert, auditor.ca_public_key,
                                 "alice", rng)
        # What crossed the channel is the extraction under this MSK.
        from repro import ibbe
        from repro.sgx.enclave import trusted_view
        inside = trusted_view(enclave)
        usk = ibbe.extract(inside._require_msk(), inside._require_pk(),
                           "alice")
        assert usk.element.encode() == raw

    def test_mismatched_certificate_rejected(self, world, group):
        device, ias, enclave, auditor, rng = world
        auditor.approve_measurement(enclave.measurement)
        cert = setup_trust(enclave, auditor)
        # The same enclave build on a different platform derives a
        # different identity key, so the certificate does not transfer.
        other_device = SgxDevice(rng=DeterministicRng("imposter-device"))
        other = IbbeEnclave.load(other_device, {"pairing_group": group})
        other.call("setup_system", 8)
        with pytest.raises(AttestationError, match="different"):
            provision_user_key(other, cert, auditor.ca_public_key,
                               "alice", rng)

    def test_identity_stable_across_restart(self, world, group):
        """Same build + same platform ⇒ same certified identity (the
        property the persistent CLI deployment relies on)."""
        device, _, enclave, _, _ = world
        twin = IbbeEnclave.load(device, {"pairing_group": group})
        assert twin.call("get_public_key") == enclave.call("get_public_key")

    def test_malformed_request_rejected(self, world):
        _, _, enclave, _, rng = world
        enclave.call("setup_system", 8)
        from repro.crypto import ecies
        enclave_key = ecies.EciesPublicKey.decode(
            enclave.call("get_public_key")
        )
        garbage = enclave_key.encrypt(b"{not json", rng, aad=b"usk-request")
        with pytest.raises(AttestationError):
            enclave.call("provision_user_key", garbage)


class PeerWorld:
    """Two IBBE enclaves of one build on two registered platforms:
    ``source`` holds the master secret, ``target`` does not."""

    def __init__(self, group):
        self.group = group
        self.rng = DeterministicRng("mage-refusals")
        self.ias = IntelAttestationService(rng=self.rng)
        self.source_device = self.device()
        self.target_device = self.device()
        self.source = self.load(self.source_device)
        self.pk, self.sealed_msk = self.source.call("setup_system", 4)
        self.target = self.load(self.target_device)

    def device(self):
        device = SgxDevice(rng=self.rng)
        self.ias.register_device(device.device_id,
                                 device.attestation_public_key)
        return device

    def load(self, device, **config):
        pinned = self.ias.report_public_key.encode().hex()
        return IbbeEnclave.load(device, {
            "pairing_group": self.group, "ias_report_key": pinned, **config})

    def evidence(self, verifier, prover, ias=None):
        """Steps 1-2 of the handshake plus the IAS round trip: the
        ``(report, key)`` pair ``prover`` would present to ``verifier``."""
        nonce = verifier.call("peer_offer")["nonce"]
        report = (ias or self.ias).verify_quote(
            prover.call("get_attestation_quote", nonce))
        return report, prover.call("get_public_key")


# Each case stages one refused step of the MAGE exchange and returns
# ``(verifier, peer, attempt)``: ``attempt()`` must end in
# AttestationError, after which ``verifier`` must still refuse to export
# to ``peer`` and ``peer`` must still hold no master secret.

def _register(verifier, report, key):
    return lambda: verifier.call("register_peer", report, key)


def unpinned_ias_key(w):
    loose = IbbeEnclave.load(w.device(), {"pairing_group": w.group})
    loose.call("setup_system", 4)
    return loose, w.target, _register(loose, *w.evidence(loose, w.target))


def report_is_not_a_report(w):
    nonce = w.source.call("peer_offer")["nonce"]
    quote = w.target.call("get_attestation_quote", nonce)
    return w.source, w.target, _register(
        w.source, quote, w.target.call("get_public_key"))


def report_signed_by_another_ias(w):
    other = IntelAttestationService(rng=DeterministicRng("other-ias"))
    other.register_device(w.target_device.device_id,
                          w.target_device.attestation_public_key)
    return w.source, w.target, _register(
        w.source, *w.evidence(w.source, w.target, ias=other))


def revoked_platform(w):
    w.ias.revoke_device(w.target_device.device_id)
    return w.source, w.target, _register(
        w.source, *w.evidence(w.source, w.target))


def different_measured_config(w):
    odd = w.load(w.device(), build="patched")
    return w.source, odd, _register(w.source, *w.evidence(w.source, odd))


def substituted_key(w):
    report, _ = w.evidence(w.source, w.target)
    mallory = w.load(w.device())
    return w.source, mallory, _register(
        w.source, report, mallory.call("get_public_key"))


def nonceless_quote(w):
    """The quote the Auditor certifies answers no challenge: its zero
    second half is never a nonce ``peer_offer`` issued."""
    w.source.call("peer_offer")
    report = w.ias.verify_quote(w.target.call("get_attestation_quote"))
    assert report.is_ok and report.report_data[32:] == bytes(32)
    return w.source, w.target, _register(
        w.source, report, w.target.call("get_public_key"))


def replayed_report(w):
    """A report answers one challenge once: registering it twice is
    refused, and so is presenting it to the same enclave after a restart
    emptied its registry (a stale quote)."""
    report, key = w.evidence(w.source, w.target)
    w.source.call("register_peer", report, key)
    with pytest.raises(AttestationError, match="outstanding"):
        w.source.call("register_peer", report, key)
    restarted = w.load(w.source_device)
    restarted.call("restore_system", w.sealed_msk, w.pk)
    return restarted, w.target, _register(restarted, report, key)


def export_to_unregistered_key(w):
    key = w.target.call("get_public_key")
    return w.source, w.target, lambda: w.source.call(
        "export_master_secret_to_peer", key)


def import_from_unregistered_sender(w):
    """The attack the mutual half of the handshake exists for: a master
    secret of the host's choosing, correctly wrapped for the target."""
    from repro.crypto import ecies
    target_key = ecies.EciesPublicKey.decode(w.target.call("get_public_key"))
    chosen = (7).to_bytes(64, "big") + w.pk.h.encode()
    blob = target_key.encrypt(chosen, w.rng, aad=b"msk-peer")
    return w.source, w.target, lambda: w.target.call(
        "import_master_secret_from_peer", blob, w.pk,
        w.source.call("get_public_key"))


def non_bytes_key(door, junk):
    """A host-supplied key that is not ``bytes``.  The doors used to
    apply ``bytes()`` / ``sha256()`` to it unchecked: an ``int`` n
    allocated n bytes inside the boundary, a ``str`` escaped as
    ``TypeError``."""
    def case(w):
        if door == "register_peer":
            report, _ = w.evidence(w.source, w.target)
            callee, args = w.source, (report, junk)
        elif door == "export_master_secret_to_peer":
            callee, args = w.source, (junk,)
        else:
            callee, args = w.target, (b"blob", w.pk, junk)
        return w.source, w.target, lambda: callee.call(door, *args)
    case.__name__ = f"{door}-{type(junk).__name__}"
    return case


#: (case, the refusal it must end in)
MAGE_REFUSALS = [
    (unpinned_ias_key, "requires a pinned 'ias_report_key'"),
    (report_is_not_a_report, "malformed attestation report"),
    (report_signed_by_another_ias, "report signature invalid"),
    (revoked_platform, "rejected by IAS: DEVICE_REVOKED"),
    (different_measured_config, "runs different code"),
    (substituted_key, "does not commit to the presented key"),
    (nonceless_quote, "outstanding challenge"),
    (replayed_report, "outstanding challenge"),
    (export_to_unregistered_key, "not a mutually attested peer"),
    (import_from_unregistered_sender, "not a mutually attested peer"),
] + [
    (non_bytes_key(door, junk), reason)
    for door, reason in (
        ("register_peer", "must be bytes"),
        ("export_master_secret_to_peer", "not a mutually attested peer"),
        ("import_master_secret_from_peer", "not a mutually attested peer"))
    for junk in (1 << 20, "not bytes")
]


class TestPeerRefusals:
    """The MAGE predicate (``register_peer``) and the two registry checks
    behind it, observed through the doors only."""

    def test_handshake_admits_a_genuine_peer(self, group):
        """The control: the same world, nothing tampered with."""
        from repro.sgx.attestation import provision_master_secret
        w = PeerWorld(group)
        sealed = provision_master_secret(w.source, w.target, w.ias, w.pk)
        assert w.target.call("get_system_bound") == 4
        # The import door hands back the target's own sealed copy.
        restarted = w.load(w.target_device)
        restarted.call("restore_system", sealed, w.pk)
        assert restarted.call("get_system_bound") == 4

    @pytest.mark.parametrize("case, reason", MAGE_REFUSALS,
                             ids=[case.__name__ for case, _ in MAGE_REFUSALS])
    def test_refused_and_nothing_admitted(self, group, case, reason):
        verifier, peer, attempt = case(PeerWorld(group))
        with pytest.raises(AttestationError, match=reason):
            attempt()
        with pytest.raises(AttestationError, match="mutually attested"):
            verifier.call("export_master_secret_to_peer",
                          peer.call("get_public_key"))
        with pytest.raises(EnclaveError, match="not set up"):
            peer.call("get_system_bound")

    def test_outstanding_challenges_are_bounded(self, group):
        """``peer_offer`` is host-callable, so the challenges it leaves
        behind are capped: one offer past the bound evicts the oldest
        (its answer is refused) and nothing younger."""
        w = PeerWorld(group)
        nonces = [w.source.call("peer_offer")["nonce"]
                  for _ in range(IbbeEnclave.MAX_PEER_CHALLENGES + 1)]
        key = w.target.call("get_public_key")

        def answer(nonce):
            return w.ias.verify_quote(w.target.call("get_attestation_quote", nonce))

        with pytest.raises(AttestationError,
                           match="does not answer an outstanding challenge"):
            w.source.call("register_peer", answer(nonces[0]), key)
        with pytest.raises(AttestationError, match="mutually attested"):
            w.source.call("export_master_secret_to_peer", key)
        w.source.call("register_peer", answer(nonces[1]), key)
        w.source.call("register_peer", answer(nonces[-1]), key)
        assert w.source.call("export_master_secret_to_peer", key)


class TestCounters:
    def test_monotonic(self):
        svc = MonotonicCounterService()
        svc.create("c")
        assert svc.increment("c") == 1
        assert svc.increment("c") == 2
        assert svc.read("c") == 2

    def test_duplicate_create(self):
        svc = MonotonicCounterService()
        svc.create("c")
        with pytest.raises(EnclaveError):
            svc.create("c")

    def test_unknown_counter(self):
        svc = MonotonicCounterService()
        with pytest.raises(EnclaveError):
            svc.increment("missing")
        with pytest.raises(EnclaveError):
            svc.read("missing")
