"""File-backed cloud store tests (mirrors test_cloud_store semantics)."""

import pytest

from repro.cloud import CloudBatch, FileCloudStore
from repro.errors import ConflictError, NotFoundError, StorageError


@pytest.fixture()
def store(tmp_path):
    return FileCloudStore(tmp_path / "cloud")


class TestObjects:
    def test_put_get_roundtrip(self, store):
        assert store.put("/g/p0", b"data") == 1
        obj = store.get("/g/p0")
        assert obj.data == b"data"
        assert obj.version == 1

    def test_versions_persist(self, store, tmp_path):
        store.put("/g/p0", b"v1")
        store.put("/g/p0", b"v2")
        # A second handle over the same directory sees the same state.
        other = FileCloudStore(tmp_path / "cloud")
        assert other.get("/g/p0").version == 2
        assert other.get("/g/p0").data == b"v2"

    def test_missing_raises(self, store):
        with pytest.raises(NotFoundError):
            store.get("/none")

    def test_delete(self, store):
        store.put("/g/p0", b"x")
        store.commit(CloudBatch().delete("/g/p0"))
        assert store.get_many(["/g/p0"]) == {}
        with pytest.raises(NotFoundError):
            store.commit(CloudBatch().delete("/g/p0"))

    def test_conditional_put(self, store):
        store.put("/g/p0", b"v1")
        store.put("/g/p0", b"v2", expected_version=1)
        with pytest.raises(ConflictError):
            store.put("/g/p0", b"v3", expected_version=1)

    def test_unicode_and_slashes_in_paths(self, store):
        store.put("/gr/sub/ü", b"x")
        assert store.get("/gr/sub/ü").data == b"x"

    def test_bad_path(self, store):
        with pytest.raises(StorageError):
            store.put("/a/../b", b"x")


class TestDirectoriesAndPolling:
    def test_list_dir(self, store):
        store.put("/g/p0", b"a")
        store.put("/g/p1", b"b")
        store.put("/h/p0", b"c")
        assert store.list_dir("/g") == ["/g/p0", "/g/p1"]

    def test_poll_across_instances(self, store, tmp_path):
        store.put("/g/p0", b"a")
        events, cursor = store.poll_dir("/g")
        assert len(events) == 1
        other = FileCloudStore(tmp_path / "cloud")
        other.put("/g/p1", b"b")
        events, _ = store.poll_dir("/g", cursor)
        assert [e.path for e in events] == ["/g/p1"]

    def test_delete_event(self, store):
        store.put("/g/p0", b"a")
        store.commit(CloudBatch().delete("/g/p0"))
        events, _ = store.poll_dir("/g")
        assert [e.kind for e in events] == ["put", "delete"]


class TestAdversaryView:
    def test_iterates_objects(self, store):
        store.put("/g/p0", b"x")
        store.put("/g/p1", b"y")
        view = {obj.path: obj.data for obj in store.adversary_view()}
        assert view == {"/g/p0": b"x", "/g/p1": b"y"}


class TestSystemOnFileStore:
    def test_full_flow_on_disk(self, tmp_path):
        """The complete admin/client flow with disk-backed storage."""
        from repro import quickstart_system
        from repro.crypto.rng import DeterministicRng

        system = quickstart_system(
            partition_capacity=3, params="toy64",
            rng=DeterministicRng("filestore-e2e"),
            cloud=FileCloudStore(tmp_path / "cloud"),
        )

        system.admin.create_group("g", ["a", "b", "c", "d"])
        client = system.make_client("g", "a")
        client.sync()
        gk = client.current_group_key()
        system.admin.remove_user("g", "b")
        client.sync()
        assert client.current_group_key() != gk


class _CrashAt:
    """Minimal injector stand-in: crash the first ``times`` hits of one
    named crash point, pass everything else through."""

    def __init__(self, point, times=1):
        self.point = point
        self.remaining = times

    def crash_point(self, name):
        from repro.errors import CrashError

        if name == self.point and self.remaining > 0:
            self.remaining -= 1
            raise CrashError(name)


class TestCrashRecovery:
    """Torn writes at every named crash point must recover on re-open
    (journal roll-forward), never losing an acknowledged commit."""

    def crash_batch_at(self, tmp_path, point):
        from repro.errors import CrashError
        from repro.faults import install

        store = FileCloudStore(tmp_path / "cloud")
        store.put("/g/stale", b"old")
        batch = CloudBatch()
        batch.put("/g/p0", b"zero")
        batch.put("/g/p1", b"one")
        batch.delete("/g/stale")
        install(_CrashAt(point))
        try:
            with pytest.raises(CrashError):
                store.commit(batch)
        finally:
            install(None)
        return FileCloudStore(tmp_path / "cloud")  # the restarted process

    @pytest.mark.parametrize("point", [
        "cloud.commit.journaled",
        "cloud.commit.apply",
        "store.put.data_written",
    ])
    def test_journaled_commit_rolls_forward(self, tmp_path, point):
        recovered = self.crash_batch_at(tmp_path, point)
        assert recovered.get("/g/p0").data == b"zero"
        assert recovered.get("/g/p1").data == b"one"
        assert recovered.get_many(["/g/stale"]) == {}
        assert recovered.metrics.registry.snapshot()["cloud.recoveries"] == 1
        # The journal is consumed; a third open has nothing to replay.
        assert not (tmp_path / "cloud" / "commit.journal").exists()

    def test_recovered_events_are_complete_and_ordered(self, tmp_path):
        recovered = self.crash_batch_at(tmp_path, "cloud.commit.apply")
        events, _ = recovered.poll_dir("/g")
        assert [(e.kind, e.path) for e in events] == [
            ("put", "/g/stale"),
            ("put", "/g/p0"),
            ("put", "/g/p1"),
            ("delete", "/g/stale"),
        ]
        sequences = [e.sequence for e in events]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_crashed_single_put_recovers(self, tmp_path):
        from repro.errors import CrashError
        from repro.faults import install

        store = FileCloudStore(tmp_path / "cloud")
        install(_CrashAt("store.put.data_written"))
        try:
            with pytest.raises(CrashError):
                store.put("/g/p0", b"data")
        finally:
            install(None)
        recovered = FileCloudStore(tmp_path / "cloud")
        assert recovered.get("/g/p0").data == b"data"
        assert recovered.get("/g/p0").version == 1

    def test_stray_tmp_files_swept(self, tmp_path):
        store = FileCloudStore(tmp_path / "cloud")
        store.put("/g/p0", b"data")
        stray = tmp_path / "cloud" / "objects" / "deadbeef.tmp"
        stray.write_bytes(b"torn")
        reopened = FileCloudStore(tmp_path / "cloud")
        assert not stray.exists()
        assert reopened.list_dir("/g") == ["/g/p0"]

    def test_missing_meta_rebuilt_from_event_log(self, tmp_path):
        store = FileCloudStore(tmp_path / "cloud")
        store.put("/g/p0", b"v1")
        store.put("/g/p0", b"v2")
        metas = list((tmp_path / "cloud" / "objects").glob("*.meta"))
        assert len(metas) == 1
        metas[0].unlink()
        reopened = FileCloudStore(tmp_path / "cloud")
        assert reopened.get("/g/p0").version == 2
        assert reopened.metrics.registry.snapshot()["cloud.meta_rebuilds"] >= 1

    def test_torn_final_event_line_skipped(self, tmp_path):
        store = FileCloudStore(tmp_path / "cloud")
        store.put("/g/p0", b"a")
        events_path = tmp_path / "cloud" / "events.jsonl"
        with events_path.open("a", encoding="utf-8") as handle:
            handle.write('{"sequence": 2, "kind": "pu')  # torn mid-write
        reopened = FileCloudStore(tmp_path / "cloud")
        events, cursor = reopened.poll_dir("/g")
        assert [e.path for e in events] == ["/g/p0"]
        # New writes sequence after the surviving events.
        reopened.put("/g/p1", b"b")
        events, _ = reopened.poll_dir("/g", cursor)
        assert [e.path for e in events] == ["/g/p1"]


class TestPollEdgeSemantics:
    def test_after_sequence_past_end(self, store):
        store.put("/g/p0", b"a")
        events, cursor = store.poll_dir("/g", after_sequence=999)
        assert events == []
        assert cursor == 999  # the cursor never moves backwards

    def test_resubscribe_replays_history(self, store):
        """A watcher that lost its cursor resubscribes from zero and gets
        every event again — delivery is at-least-once, dedup is the
        subscriber's job (clients dedup via record versions)."""
        store.put("/g/p0", b"a")
        store.put("/g/p1", b"b")
        first, cursor = store.poll_dir("/g")
        assert len(first) == 2
        replay, _ = store.poll_dir("/g", after_sequence=0)
        assert [(e.kind, e.path, e.sequence) for e in replay] == \
            [(e.kind, e.path, e.sequence) for e in first]

    def test_watcher_survives_store_restart(self, store, tmp_path):
        store.put("/g/p0", b"a")
        _, cursor = store.poll_dir("/g")
        # The store process restarts; the watcher keeps its cursor.
        restarted = FileCloudStore(tmp_path / "cloud")
        restarted.put("/g/p1", b"b")
        events, new_cursor = restarted.poll_dir("/g", cursor)
        assert [e.path for e in events] == ["/g/p1"]
        assert new_cursor > cursor
        # And nothing further: the cursor advanced exactly past /g/p1.
        events, _ = restarted.poll_dir("/g", new_cursor)
        assert events == []
