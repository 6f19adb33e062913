"""CLI integration tests (each command invocation builds a fresh process-
like deployment from the state directory)."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _DurableCounters, main
from repro.cloud import CloudStore, FileCloudStore
from repro.core.metadata import sealed_key_path
from repro.core.multiadmin import ConcurrentAdministrator
from repro.crypto.rng import DeterministicRng
from repro.net import RemoteCloudStore
from repro.sgx import SgxDevice
from repro.workloads.chaos import cloud_digest


@pytest.fixture()
def dirs(tmp_path):
    state = tmp_path / "state"
    cloud = tmp_path / "cloud"
    return str(state), str(cloud)


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def initialized(dirs):
    state, cloud = dirs
    assert run("init", "--state", state, "--cloud", cloud,
               "--params", "toy64", "--capacity", "3", "--bound", "8") == 0
    return state, cloud


class TestInit:
    def test_creates_state_files(self, initialized, tmp_path):
        state, _ = initialized
        from pathlib import Path
        names = {p.name for p in Path(state).iterdir()}
        assert {"config.json", "device-secret.bin", "sealed-msk.bin",
                "public-key.bin", "admin-signing.key"} <= names

    def test_refuses_double_init(self, initialized):
        state, cloud = initialized
        assert run("init", "--state", state, "--cloud", cloud) == 2

    def test_force_reinit(self, initialized):
        state, cloud = initialized
        assert run("init", "--state", state, "--cloud", cloud,
                   "--force") == 0

    def test_no_plaintext_secrets_in_state(self, initialized):
        """The state directory holds no unsealed enclave secrets: the MSK
        file must be a sealed blob, not key material."""
        state, _ = initialized
        from pathlib import Path
        sealed = (Path(state) / "sealed-msk.bin").read_bytes()
        assert sealed.startswith(b"SGXSEAL1")


class TestGroupLifecycle:
    def test_full_lifecycle(self, initialized, capsys):
        state, cloud = initialized
        assert run("create-group", "--state", state, "--cloud", cloud,
                   "team", "alice", "bob", "carol") == 0
        assert run("add-user", "--state", state, "--cloud", cloud,
                   "team", "dave") == 0
        assert run("remove-user", "--state", state, "--cloud", cloud,
                   "team", "bob") == 0
        assert run("show", "--state", state, "--cloud", cloud, "team") == 0
        out = capsys.readouterr().out
        assert "alice" in out and "bob" not in out.split("group")[-1]

    def test_show_all_groups(self, initialized, capsys):
        state, cloud = initialized
        run("create-group", "--state", state, "--cloud", cloud, "g1", "a")
        run("create-group", "--state", state, "--cloud", cloud, "g2", "b")
        assert run("show", "--state", state, "--cloud", cloud) == 0
        out = capsys.readouterr().out
        assert "g1" in out and "g2" in out

    def test_duplicate_add_fails_cleanly(self, initialized):
        state, cloud = initialized
        run("create-group", "--state", state, "--cloud", cloud, "g", "a")
        assert run("add-user", "--state", state, "--cloud", cloud,
                   "g", "a") == 1

    def test_rekey(self, initialized):
        state, cloud = initialized
        run("create-group", "--state", state, "--cloud", cloud, "g", "a")
        assert run("rekey", "--state", state, "--cloud", cloud, "g") == 0

    def test_delete_group(self, initialized, capsys):
        state, cloud = initialized
        run("create-group", "--state", state, "--cloud", cloud, "g", "a")
        assert run("delete-group", "--state", state, "--cloud", cloud,
                   "g") == 0
        capsys.readouterr()
        assert run("show", "--state", state, "--cloud", cloud) == 0
        assert "g:" not in capsys.readouterr().out


class TestClientFlow:
    def test_provision_and_derive(self, initialized, tmp_path, capsys):
        state, cloud = initialized
        run("create-group", "--state", state, "--cloud", cloud,
            "team", "alice", "bob")
        key_file = tmp_path / "alice.key"
        assert run("provision", "--state", state, "--cloud", cloud,
                   "alice", "--out", str(key_file)) == 0
        assert key_file.exists()
        bundle = json.loads(
            key_file.with_suffix(".key.bundle.json").read_text()
        )
        assert bundle["identity"] == "alice"
        capsys.readouterr()

        assert run("client-key", "--cloud", cloud,
                   "--user-key", str(key_file), "team", "alice") == 0
        key_hex_1 = capsys.readouterr().out.strip()
        assert len(key_hex_1) == 64

        # Rotation is visible to the client.
        run("remove-user", "--state", state, "--cloud", cloud,
            "team", "bob")
        capsys.readouterr()
        assert run("client-key", "--cloud", cloud,
                   "--user-key", str(key_file), "team", "alice") == 0
        key_hex_2 = capsys.readouterr().out.strip()
        assert key_hex_2 != key_hex_1

    def test_revoked_client_fails(self, initialized, tmp_path, capsys):
        state, cloud = initialized
        run("create-group", "--state", state, "--cloud", cloud,
            "team", "alice", "bob")
        key_file = tmp_path / "bob.key"
        run("provision", "--state", state, "--cloud", cloud,
            "bob", "--out", str(key_file))
        run("remove-user", "--state", state, "--cloud", cloud,
            "team", "bob")
        capsys.readouterr()
        assert run("client-key", "--cloud", cloud,
                   "--user-key", str(key_file), "team", "bob") == 1

    def test_identity_mismatch_rejected(self, initialized, tmp_path):
        state, cloud = initialized
        run("create-group", "--state", state, "--cloud", cloud,
            "team", "alice", "bob")
        key_file = tmp_path / "alice.key"
        run("provision", "--state", state, "--cloud", cloud,
            "alice", "--out", str(key_file))
        assert run("client-key", "--cloud", cloud,
                   "--user-key", str(key_file), "team", "bob") == 2


class TestStateReuseAcrossInvocations:
    def test_sealed_state_restores(self, initialized):
        """Every command builds a fresh Deployment; the sealed MSK must
        keep working across them (same simulated platform)."""
        state, cloud = initialized
        for i in range(3):
            assert run("create-group", "--state", state, "--cloud", cloud,
                       f"g{i}", "a", "b") == 0
        assert run("show", "--state", state, "--cloud", cloud) == 0


class TestSealedKeyReplayAcrossInvocations:
    def test_replayed_sealed_key_refused_by_the_next_add(
            self, initialized, tmp_path, capsys):
        """The store puts a pre-revocation sealed group key back.  The
        counter that stamped it lives in the state directory, so the
        next invocation's add refuses it, and no member derives the
        revoked member's key."""
        state, cloud = initialized
        assert run("create-group", "--state", state, "--cloud", cloud,
                   "g", "a", "b") == 0
        keys = {who: str(tmp_path / f"{who}.key") for who in ("a", "b")}
        for who, key_file in keys.items():
            assert run("provision", "--state", state, "--cloud", cloud,
                       who, "--out", key_file) == 0
        capsys.readouterr()
        assert run("client-key", "--cloud", cloud,
                   "--user-key", keys["b"], "g", "b") == 0
        revoked_key = capsys.readouterr().out.strip()
        saved = FileCloudStore(Path(cloud)).get(sealed_key_path("g")).data

        assert run("remove-user", "--state", state, "--cloud", cloud,
                   "g", "b") == 0
        FileCloudStore(Path(cloud)).put(sealed_key_path("g"), saved)
        capsys.readouterr()
        assert run("add-user", "--state", state, "--cloud", cloud,
                   "g", "c") == 1
        assert "rollback detected" in capsys.readouterr().err
        assert run("client-key", "--cloud", cloud,
                   "--user-key", keys["a"], "g", "a") == 0
        assert capsys.readouterr().out.strip() != revoked_key


def _bump(path: str, times: int):
    counters = _DurableCounters(Path(path))
    return [counters.increment("gk:g") for _ in range(times)]


class TestDurableCounters:
    def test_concurrent_invocations_never_share_a_value(self, tmp_path):
        """Four processes, more than the cores a CI job gets, bump one
        counter of a state directory at once: a lost update would hand
        one value out twice, or move the counter back."""
        path = tmp_path / "counters.json"
        _DurableCounters(path).create("gk:g")
        with multiprocessing.get_context("spawn").Pool(4) as pool:
            runs = pool.starmap_async(
                _bump, [(str(path), 25)] * 4).get(timeout=120)
        assert sorted(v for run in runs for v in run) == list(range(1, 101))
        assert _DurableCounters(path).read("gk:g") == 100


class TestServeHostsAStoreOnly:
    def test_removed_doors_refused_and_group_commands_load_cold(
            self, initialized):
        """``serve`` lost ``--state`` (a hosted, unauthenticated
        administrator) and ``--shards``: argparse refuses both.  What
        the admin bridge carried survives in ``cmd_group_op``: each
        group command, a cold process, loads the group first."""
        state, cloud = initialized
        for removed in (["--state", state], ["--shards", "2"]):
            with pytest.raises(SystemExit) as refused:
                run("serve", "--cloud", cloud, *removed)
            assert refused.value.code == 2
        run("create-group", "--state", state, "--cloud", cloud,
            "g", "a", "b")
        for command in (["add-user", "g", "c"], ["remove-user", "g", "b"],
                        ["rekey", "g"], ["delete-group", "g"]):
            assert run(command[0], "--state", state, "--cloud", cloud,
                       *command[1:]) == 0


def two_admin_workload(store, seed: str = "served-store") -> bytes:
    """Seeded two-administrator churn and a late client's sync against
    ``store``: the second administrator (own enclave on its own device,
    MSK by ``System.join``) refreshes between operations, then the first
    operates on a stale view, so the OCC retry path runs over whatever
    store is plugged in.  Returns the surviving member's group key."""
    system = repro.quickstart_system(
        partition_capacity=4, params="toy64", rng=DeterministicRng(seed),
        cloud=store, auto_repartition=False)
    second = system.join(
        SgxDevice(rng=DeterministicRng(f"{seed}-b-device")),
        rng=DeterministicRng(f"{seed}-b"))
    try:
        admin1 = ConcurrentAdministrator(system.admin)
        admin2 = ConcurrentAdministrator(second.admin)
        admin1.create_group("team", ["alice", "bob", "carol", "dave"])
        admin2.refresh("team")
        admin2.add_user("team", "erin")
        admin1.add_user("team", "frank")     # stale view -> conflict retry
        admin2.refresh("team")
        admin2.remove_user("team", "bob")
        admin1.rekey("team")                 # stale again -> conflict retry
        client = system.make_client("team", "alice")
        client.sync()
        assert set(system.admin.members("team")) == {
            "alice", "carol", "dave", "erin", "frank"}
        return client.current_group_key()
    finally:
        system.close()
        second.close()


class TestServeSubprocess:
    def test_served_store_is_byte_identical_and_healthy(self, tmp_path):
        """What only a live server adds to the in-thread identity tests
        (``tests/test_net.py``): a real ``repro.cli serve`` process on an
        ephemeral port, found by its ``serving tcp://…`` banner, hosts
        the two-administrator workload to the same key and cloud bytes
        as an in-process ``CloudStore``, and ``health`` exits 0."""
        src = str(Path(repro.__file__).resolve().parents[1])
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--cloud", str(tmp_path / "served"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": src})
        try:
            banner = server.stdout.readline()
            assert banner.startswith("serving tcp://"), banner
            url = banner.split()[1]
            remote = RemoteCloudStore(url)
            try:
                remote_key = two_admin_workload(remote)
                remote_digest = cloud_digest(remote)
            finally:
                remote.close()
            local = CloudStore()
            assert two_admin_workload(local) == remote_key
            assert cloud_digest(local) == remote_digest
            assert run("health", "--store-url", url) == 0
        finally:
            server.terminate()
            server.wait(timeout=10)
            server.stdout.close()
