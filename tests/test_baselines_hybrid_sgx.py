"""HE-SGX (the rejected §III-B design) — semantics and EPC behaviour."""

import pytest

from repro.baselines import HeSgxEnclave, HeSgxGroupManager
from repro.crypto import ecies
from repro.crypto.rng import DeterministicRng
from repro.errors import MembershipError, RevokedError
from repro.sgx.device import SgxDevice
from repro.sgx.epc import PAGE_SIZE, EpcModel

USERS = [f"u{i}" for i in range(6)]


@pytest.fixture()
def manager():
    rng = DeterministicRng("he-sgx")
    device = SgxDevice(rng=rng)
    enclave = HeSgxEnclave.load(device)
    mgr = HeSgxGroupManager(enclave)
    for user in USERS + ["late"]:
        mgr.register_user(user, ecies.generate_keypair(rng))
    return mgr


class TestSemantics:
    def test_create_and_derive(self, manager):
        manager.create_group("g", USERS)
        keys = {manager.derive_group_key("g", u) for u in USERS}
        assert len(keys) == 1

    def test_add_keeps_key(self, manager):
        manager.create_group("g", USERS)
        gk = manager.derive_group_key("g", "u0")
        manager.add_user("g", "late")
        assert manager.derive_group_key("g", "late") == gk

    def test_remove_rekeys_and_locks_out(self, manager):
        manager.create_group("g", USERS)
        gk = manager.derive_group_key("g", "u0")
        manager.remove_user("g", "u3")
        assert manager.derive_group_key("g", "u0") != gk
        with pytest.raises(RevokedError):
            manager.derive_group_key("g", "u3")

    def test_membership_errors(self, manager):
        manager.create_group("g", USERS)
        with pytest.raises(MembershipError):
            manager.add_user("g", "u0")
        with pytest.raises(MembershipError):
            manager.remove_user("g", "stranger")

    def test_zero_knowledge_for_the_driver(self, manager):
        """Unlike plain HE, the untrusted manager never sees gk."""
        manager.create_group("g", USERS)
        gk = manager.derive_group_key("g", "u0")
        for wrapped in manager._wrapped["g"].values():
            assert gk not in wrapped

    def test_leak_scanner_guards_gk(self, manager):
        """The enclave's boundary scanner knows the group keys."""
        from repro.sgx.enclave import trusted_view
        manager.create_group("g", USERS)
        assert trusted_view(manager.enclave)._secret_values


class TestEpcBehaviour:
    def test_revocation_touches_linear_working_set(self):
        """The §III-B complaint: HE-SGX revocations read+write metadata
        linear in the group size inside the enclave."""
        rng = DeterministicRng("he-sgx-epc")
        read_bytes = {}
        for n in (16, 64):
            device = SgxDevice(rng=rng, epc=EpcModel())
            enclave = HeSgxEnclave.load(device)
            mgr = HeSgxGroupManager(enclave)
            users = [f"u{i}" for i in range(n)]
            for user in users:
                mgr.register_user(user, ecies.generate_keypair(rng))
            mgr.create_group("g", users)
            before = device.epc.stats.read_bytes
            mgr.remove_user("g", users[0])
            read_bytes[n] = device.epc.stats.read_bytes - before
        assert read_bytes[64] > 3 * read_bytes[16]

    def test_small_epc_thrashes_under_large_group(self):
        rng = DeterministicRng("he-sgx-thrash")
        device = SgxDevice(rng=rng,
                           epc=EpcModel(capacity_bytes=2 * PAGE_SIZE))
        enclave = HeSgxEnclave.load(device)
        mgr = HeSgxGroupManager(enclave)
        users = [f"u{i}" for i in range(200)]
        for user in users:
            mgr.register_user(user, ecies.generate_keypair(rng))
        mgr.create_group("g", users)
        mgr.remove_user("g", users[0])
        assert device.epc.stats.evictions > 0
