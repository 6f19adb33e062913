"""Cloud storage substrate tests: objects, versions, long polling,
batch commits, latency."""

import pytest

from repro.cloud import CloudBatch, CloudStore, LatencyModel
from repro.errors import ConflictError, NotFoundError, StorageError


@pytest.fixture()
def store():
    return CloudStore()


class TestObjects:
    def test_put_get(self, store):
        version = store.put("/g/p0", b"data")
        assert version == 1
        obj = store.get("/g/p0")
        assert obj.data == b"data"
        assert obj.version == 1

    def test_versions_increment(self, store):
        store.put("/g/p0", b"v1")
        assert store.put("/g/p0", b"v2") == 2
        assert store.get("/g/p0").data == b"v2"

    def test_missing_raises(self, store):
        with pytest.raises(NotFoundError):
            store.get("/nope")

    def test_delete(self, store):
        store.put("/g/p0", b"x")
        store.commit(CloudBatch().delete("/g/p0"))
        assert store.get_many(["/g/p0"]) == {}
        with pytest.raises(NotFoundError):
            store.commit(CloudBatch().delete("/g/p0"))

    def test_path_normalization(self, store):
        store.put("g//p0", b"x")
        assert store.get("/g/p0").data == b"x"

    def test_bad_paths_rejected(self, store):
        with pytest.raises(StorageError):
            store.put("", b"x")
        with pytest.raises(StorageError):
            store.put("/a/../b", b"x")

    def test_conditional_put(self, store):
        store.put("/g/p0", b"v1")
        store.put("/g/p0", b"v2", expected_version=1)
        with pytest.raises(ConflictError):
            store.put("/g/p0", b"v3", expected_version=1)

    def test_conditional_create(self, store):
        store.put("/new", b"x", expected_version=0)
        with pytest.raises(ConflictError):
            store.put("/new", b"y", expected_version=0)


class TestDirectories:
    def test_list_dir_immediate_children(self, store):
        store.put("/g/p0", b"a")
        store.put("/g/p1", b"b")
        store.put("/g/sub/deep", b"c")
        store.put("/other/p0", b"d")
        assert store.list_dir("/g") == ["/g/p0", "/g/p1", "/g/sub"]


class TestLongPolling:
    def test_events_in_order(self, store):
        store.put("/g/p0", b"a")
        store.put("/g/p1", b"b")
        events, cursor = store.poll_dir("/g")
        assert [e.path for e in events] == ["/g/p0", "/g/p1"]
        assert all(e.kind == "put" for e in events)

    def test_cursor_advances(self, store):
        store.put("/g/p0", b"a")
        _, cursor = store.poll_dir("/g")
        events, cursor2 = store.poll_dir("/g", cursor)
        assert events == []
        store.put("/g/p0", b"b")
        events, _ = store.poll_dir("/g", cursor2)
        assert len(events) == 1
        assert events[0].version == 2

    def test_scoped_to_directory(self, store):
        store.put("/g/p0", b"a")
        store.put("/other/p0", b"b")
        events, _ = store.poll_dir("/g")
        assert [e.path for e in events] == ["/g/p0"]

    def test_delete_events(self, store):
        store.put("/g/p0", b"a")
        store.commit(CloudBatch().delete("/g/p0"))
        events, _ = store.poll_dir("/g")
        assert [e.kind for e in events] == ["put", "delete"]

    def test_after_sequence_past_end(self, store):
        store.put("/g/p0", b"a")
        events, cursor = store.poll_dir("/g", after_sequence=999)
        assert events == []
        assert cursor == 999  # the cursor never moves backwards

    def test_resubscribe_replays_history(self, store):
        """Delivery is at-least-once: a watcher that lost its cursor
        polls from zero and receives the full history again, with the
        same sequence numbers (dedup is the subscriber's job)."""
        store.put("/g/p0", b"a")
        store.put("/g/p1", b"b")
        first, _ = store.poll_dir("/g")
        replay, _ = store.poll_dir("/g", after_sequence=0)
        assert [(e.kind, e.path, e.sequence) for e in replay] == \
            [(e.kind, e.path, e.sequence) for e in first]


class TestAdversaryView:
    def test_sees_everything(self, store):
        store.put("/g/p0", b"secret-ish")
        view = {obj.path: obj.data for obj in store.adversary_view()}
        assert view == {"/g/p0": b"secret-ish"}


class TestBatchCommit:
    def test_commit_applies_in_order(self, store):
        versions = store.commit(
            CloudBatch().put("/g/descriptor", b"d").put("/g/p0", b"a")
        )
        assert versions == {"/g/descriptor": 1, "/g/p0": 1}
        assert store.get("/g/p0").data == b"a"

    def test_commit_is_one_request(self, store):
        store.commit(CloudBatch().put("/g/p0", b"a").put("/g/p1", b"bb"))
        snap = store.metrics.registry.snapshot()
        assert snap["cloud.requests"] == 1
        assert snap["cloud.batch_commits"] == 1
        assert snap["cloud.bytes_in"] == 3

    def test_conditional_put_inside_batch(self, store):
        store.put("/g/descriptor", b"v1")
        store.commit(CloudBatch().put("/g/descriptor", b"v2",
                                      expected_version=1))
        with pytest.raises(ConflictError):
            store.commit(CloudBatch().put("/g/descriptor", b"v3",
                                          expected_version=1))

    def test_failed_commit_leaves_store_untouched(self, store):
        store.put("/g/descriptor", b"v1")
        before = {o.path: (o.data, o.version) for o in store.adversary_view()}
        events_before, _ = store.poll_dir("/g")
        with pytest.raises(ConflictError):
            store.commit(
                CloudBatch()
                .put("/g/p0", b"partial")
                .put("/g/descriptor", b"v2", expected_version=7)
            )
        after = {o.path: (o.data, o.version) for o in store.adversary_view()}
        events_after, _ = store.poll_dir("/g")
        assert after == before
        assert len(events_after) == len(events_before)

    def test_delete_missing_raises_unless_ignored(self, store):
        with pytest.raises(NotFoundError):
            store.commit(CloudBatch().delete("/nope"))
        store.commit(CloudBatch().delete("/nope", ignore_missing=True))
        assert store.metrics.batch_commits == 1

    def test_put_after_delete_restarts_versions(self, store):
        store.put("/g/p0", b"old")
        store.put("/g/p0", b"old2")
        versions = store.commit(
            CloudBatch().delete("/g/p0").put("/g/p0", b"new")
        )
        # Matches sequential semantics: a delete resets the version chain.
        assert versions == {"/g/p0": 1}
        assert store.get("/g/p0").version == 1

    def test_commit_emits_ordinary_events(self, store):
        store.commit(CloudBatch().put("/g/p0", b"a").delete("/g/p0"))
        events, _ = store.poll_dir("/g")
        assert [e.kind for e in events] == ["put", "delete"]

    def test_conditional_put_sees_in_batch_writes(self, store):
        with pytest.raises(ConflictError):
            store.commit(
                CloudBatch()
                .put("/g/p0", b"a")
                .put("/g/p0", b"b", expected_version=0)
            )
        store.commit(
            CloudBatch()
            .put("/g/p0", b"a")
            .put("/g/p0", b"b", expected_version=1)
        )
        assert store.get("/g/p0").data == b"b"


class TestGetMany:
    def test_fetches_existing_and_skips_missing(self, store):
        store.put("/g/p0", b"a")
        store.put("/g/p1", b"bb")
        objects = store.get_many(["/g/p0", "/g/p1", "/g/ghost"])
        assert {p: o.data for p, o in objects.items()} == {
            "/g/p0": b"a", "/g/p1": b"bb",
        }

    def test_single_request_bytes_out(self, store):
        store.put("/g/p0", bytes(10))
        store.put("/g/p1", bytes(20))
        requests_before = store.metrics.requests
        store.get_many(["/g/p0", "/g/p1"])
        assert store.metrics.requests == requests_before + 1
        assert store.metrics.bytes_out == 30


class TestMetricsAndLatency:
    def test_request_accounting(self, store):
        store.put("/g/p0", bytes(100))
        store.get("/g/p0")
        snap = store.metrics.registry.snapshot()
        assert snap["cloud.requests"] == 2
        assert snap["cloud.batch_commits"] == 1   # a put is a commit
        assert snap["cloud.bytes_in"] == 100   # upload volume (put payloads)
        assert snap["cloud.bytes_out"] == 100  # download volume (get payloads)

    def test_latency_model_disabled_by_default(self, store):
        store.put("/g/p0", b"x")
        assert store.metrics.simulated_latency_ms == 0.0

    def test_latency_model_accumulates(self):
        store = CloudStore(latency=LatencyModel.public_cloud(seed="t"))
        store.put("/g/p0", bytes(10_000))
        assert store.metrics.simulated_latency_ms >= 80.0

    def test_latency_deterministic(self):
        a = LatencyModel.public_cloud(seed="s")
        b = LatencyModel.public_cloud(seed="s")
        assert [a.sample(100) for _ in range(5)] == [b.sample(100) for _ in range(5)]
