"""CLI integration tests (each command invocation builds a fresh process-
like deployment from the state directory)."""

import json

import pytest

from repro.cli import main


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
