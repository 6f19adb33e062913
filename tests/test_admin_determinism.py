"""The administrator is deterministic, observed from outside.

Two deployments built from one seed and driven through the same
mutation script end with byte-identical cloud state (data and versions)
and hand every surviving member the same group key — the property the
golden digests (``test_golden_digests``) and every convergence harness
rest on.  Also checks that sparse partition ids survive a
``load_group_from_cloud`` reload.  (What a mutation costs in crossings
and commits is pinned in ``test_footprint``.)
"""

import pytest

from repro.core.admin import GroupAdministrator
from repro.errors import RevokedError
from tests.conftest import make_system


def run_paired(script, seed="equiv", capacity=3, auto_repartition=True,
               system_bound=64):
    """Run the same mutation script against two deployments built from
    the same deterministic seed."""
    systems = []
    for _ in range(2):
        system = make_system(seed, capacity=capacity,
                             auto_repartition=auto_repartition,
                             system_bound=system_bound)
        script(system)
        systems.append(system)
    return systems


def cloud_state(system):
    return {obj.path: (obj.data, obj.version)
            for obj in system.cloud.adversary_view()}


def derived_keys(system, group_id, users):
    keys = {}
    for user in users:
        client = system.make_client(group_id, user)
        client.sync()
        keys[user] = client.current_group_key()
    assert len(set(keys.values())) == 1
    return keys


def assert_equivalent(script, users_after, group_id="g", **kwargs):
    first, second = run_paired(script, **kwargs)
    assert cloud_state(first) == cloud_state(second)
    if users_after:
        assert (derived_keys(first, group_id, users_after)
                == derived_keys(second, group_id, users_after))
    return first, second


class TestByteIdenticalCloudState:
    def test_create_group_multiple_partitions(self):
        members = [f"u{i}" for i in range(8)]
        assert_equivalent(
            lambda s: s.admin.create_group("g", members), members,
        )

    def test_add_user_existing_and_fresh_partition(self):
        def script(system):
            system.admin.create_group("g", ["a", "b"])
            system.admin.add_user("g", "c")   # joins the open partition
            system.admin.add_user("g", "d")   # fills it? capacity=3: fresh
            system.admin.add_user("g", "e")   # existing again

        assert_equivalent(script, ["a", "b", "c", "d", "e"])

    def test_add_users_fill_then_spill(self):
        joiners = [f"j{i}" for i in range(7)]

        def script(system):
            system.admin.create_group("g", ["a", "b"])
            system.admin.add_users("g", joiners)

        assert_equivalent(script, ["a", "b"] + joiners)

    def test_remove_user_host_survives(self):
        def script(system):
            system.admin.create_group("g", ["a", "b", "c"])
            system.admin.remove_user("g", "b")

        assert_equivalent(script, ["a", "c"])

    def test_remove_user_host_empties(self):
        def script(system):
            system.admin.create_group("g", ["a", "b", "c"])
            system.admin.remove_user("g", "b")

        assert_equivalent(script, ["a", "c"], capacity=1,
                          auto_repartition=False)

    def test_remove_last_member(self):
        def script(system):
            system.admin.create_group("g", ["solo"])
            system.admin.remove_user("g", "solo")

        first, _ = assert_equivalent(script, [])
        client = first.make_client("g", "solo")
        client.sync()
        with pytest.raises(RevokedError):
            client.current_group_key()

    def test_rekey(self):
        members = [f"u{i}" for i in range(6)]

        def script(system):
            system.admin.create_group("g", members)
            system.admin.rekey("g")

        assert_equivalent(script, members)

    def test_delete_then_recreate(self):
        def script(system):
            system.admin.create_group("g", ["a", "b", "c", "d"])
            system.admin.delete_group("g")
            system.admin.create_group("g", ["x", "y"])

        assert_equivalent(script, ["x", "y"])

    def test_churn_script(self):
        """A longer mixed sequence, including auto-repartitioning."""
        def script(system):
            admin = system.admin
            admin.create_group("g", [f"u{i}" for i in range(9)])
            admin.add_users("g", [f"n{i}" for i in range(5)])
            for user in ("u1", "u4", "n0", "u8"):
                admin.remove_user("g", user)
            admin.rekey("g")
            admin.add_user("g", "late")
            admin.create_group("h", ["other"])

        survivors = ([f"u{i}" for i in range(9) if i not in (1, 4, 8)]
                     + [f"n{i}" for i in range(1, 5)] + ["late"])
        first, second = assert_equivalent(script, survivors)
        assert (first.admin.metrics.bytes_pushed
                == second.admin.metrics.bytes_pushed)
        assert (first.admin.metrics.partitions_written
                == second.admin.metrics.partitions_written)


class TestLoadFromCloudSparseIds:
    """After deletions, partition ids on the cloud are sparse; a takeover
    administrator must rebuild the exact table, not a renumbered one."""

    def _sparse_world(self):
        system = make_system("sparse", capacity=1, system_bound=4,
                             auto_repartition=False)
        system.admin.create_group("g", ["a", "b", "c"])
        system.admin.remove_user("g", "b")   # drops partition 1
        return system

    def _takeover_admin(self, system):
        return GroupAdministrator(
            enclave=system.enclave,
            cloud=system.cloud,
            signing_key=system.admin._signing_key,
            partition_capacity=1,
            rng=system.rng,
            auto_repartition=False,
        )

    def test_reload_preserves_sparse_partition_ids(self):
        system = self._sparse_world()
        original = system.admin.group_state("g")
        assert sorted(original.records) == [0, 2]

        admin2 = self._takeover_admin(system)
        state = admin2.load_group_from_cloud("g")
        assert sorted(state.records) == [0, 2]
        assert state.epoch == original.epoch
        assert state.descriptor_version == original.descriptor_version
        assert {pid: tuple(r.members) for pid, r in state.records.items()} \
            == {pid: tuple(r.members) for pid, r in original.records.items()}
        assert state.sealed_group_key == original.sealed_group_key

    def test_new_partition_ids_continue_after_gap(self):
        system = self._sparse_world()
        admin2 = self._takeover_admin(system)
        admin2.load_group_from_cloud("g")
        admin2.add_user("g", "d")
        state = admin2.group_state("g")
        # The freed id 1 is not reused blindly past the stored ids.
        assert sorted(state.records) == [0, 2, 3]
        client = system.make_client("g", "d")
        client.sync()
        assert client.current_group_key() is not None
