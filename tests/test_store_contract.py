"""Conformance suite for the ``CloudStoreProtocol`` contract.

One set of behavioural assertions, run against every store the package
ships: the in-memory reference, the crash-consistent file store, the
fault-injection decorator (with an empty plan), and the network client
talking to a real :class:`~repro.net.StoreServer`.  Anything that
claims to implement :class:`~repro.cloud.CloudStoreProtocol` must pass
unchanged — that equivalence is exactly what lets the administrator,
clients, chaos harness and benchmarks run against any of them.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.cloud import (
    CloudBatch,
    CloudStore,
    CloudStoreProtocol,
    FileCloudStore,
    INSPECTION_METHODS,
    ROUND_TRIP_METHODS,
)
from repro.cloud.protocol import contract_methods
from repro.errors import ConflictError, NotFoundError, StorageError
from repro.faults import FaultInjector, FaultPlan, FaultyCloudStore
from repro.net import RemoteCloudStore, ServerThread

BACKENDS = ("memory", "file", "faulty", "remote")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    """One store per backend; remote gets a live server over the
    in-memory reference, torn down after the test."""
    if request.param == "memory":
        yield CloudStore()
    elif request.param == "file":
        yield FileCloudStore(tmp_path / "store")
    elif request.param == "faulty":
        injector = FaultInjector(FaultPlan.disabled())
        yield FaultyCloudStore(CloudStore(), injector)
    else:
        inner = CloudStore()
        server = ServerThread(inner)
        url = server.start()
        remote = RemoteCloudStore(url)
        yield remote
        remote.close()
        server.stop()


def test_implements_protocol(store):
    assert isinstance(store, CloudStoreProtocol)
    for name in contract_methods():
        assert callable(getattr(store, name)), name


def test_contract_method_partition():
    # Every contract method is classified exactly once.
    assert not set(ROUND_TRIP_METHODS) & set(INSPECTION_METHODS)
    assert set(contract_methods()) == (
        set(ROUND_TRIP_METHODS) | set(INSPECTION_METHODS))


def test_put_get_roundtrip_and_versions(store):
    assert store.put("/g/a", b"one") == 1
    assert store.put("/g/a", b"two") == 2
    obj = store.get("/g/a")
    assert (obj.path, obj.data, obj.version) == ("/g/a", b"two", 2)


def test_path_normalization(store):
    store.put("g//a", b"x")
    assert store.get("/g/a").data == b"x"
    assert list(store.get_many(["g/a"])) == ["/g/a"]


def test_invalid_path_rejected(store):
    with pytest.raises(StorageError):
        store.put("/g/../escape", b"x")
    with pytest.raises(StorageError):
        store.get("")


def test_conditional_put_conflicts(store):
    store.put("/g/a", b"one")
    with pytest.raises(ConflictError):
        store.put("/g/a", b"two", expected_version=0)
    assert store.get("/g/a").data == b"one"
    assert store.put("/g/a", b"two", expected_version=1) == 2


def test_get_missing_raises_not_found(store):
    with pytest.raises(NotFoundError):
        store.get("/nope")


def test_exists_and_delete(store):
    """Existence is a ``get_many`` and a delete is a commit; neither is
    a method of its own."""
    store.put("/g/a", b"x")
    assert "/g/a" in store.get_many(["/g/a"])
    assert store.commit(CloudBatch().delete("/g/a")) == {}
    assert store.get_many(["/g/a"]) == {}
    with pytest.raises(NotFoundError):
        store.commit(CloudBatch().delete("/g/a"))


def test_put_is_a_one_op_commit(store):
    """A put is charged, versioned and broadcast exactly as the one-op
    commit it is."""
    store.put("/g/a", b"one")
    before = (store.metrics.requests, store.metrics.batch_commits,
              store.metrics.bytes_in)
    assert store.put("/g/a", b"four") == 2
    assert (store.metrics.requests, store.metrics.batch_commits,
            store.metrics.bytes_in) == (before[0] + 1, before[1] + 1,
                                        before[2] + 4)
    assert store.commit(CloudBatch().put("/g/a", b"three")) == {"/g/a": 3}
    events, _ = store.poll_dir("/g")
    assert [(e.kind, e.version) for e in events] == [
        ("put", 1), ("put", 2), ("put", 3)]


def test_get_many_skips_missing(store):
    store.put("/g/a", b"aa")
    store.put("/g/b", b"bb")
    found = store.get_many(["/g/a", "/g/missing", "g//b"])
    assert sorted(found) == ["/g/a", "/g/b"]
    assert found["/g/b"].data == b"bb"


def test_commit_atomic_success(store):
    batch = (CloudBatch()
             .put("/g/a", b"one")
             .put("/g/b", b"two")
             .delete("/g/missing", ignore_missing=True))
    versions = store.commit(batch)
    assert versions == {"/g/a": 1, "/g/b": 1}
    assert store.get("/g/a").data == b"one"


def test_commit_rolls_back_on_conflict(store):
    store.put("/g/a", b"one")
    batch = (CloudBatch()
             .put("/g/b", b"two")
             .put("/g/a", b"clash", expected_version=99))
    with pytest.raises(ConflictError):
        store.commit(batch)
    # Nothing from the failed batch landed.
    assert store.get_many(["/g/b"]) == {}
    assert store.get("/g/a").data == b"one"


def test_poll_dir_orders_events_and_advances_cursor(store):
    events, cursor = store.poll_dir("/g")
    assert events == []
    store.put("/g/a", b"one")
    store.put("/g/b", b"two")
    store.commit(CloudBatch().delete("/g/a"))
    events, cursor = store.poll_dir("/g", cursor)
    assert [(e.path, e.kind) for e in events] == [
        ("/g/a", "put"), ("/g/b", "put"), ("/g/a", "delete")]
    assert [e.sequence for e in events] == sorted(e.sequence
                                                 for e in events)
    assert cursor == store.head_sequence()
    # Nothing new: empty delta, cursor stable.
    events, again = store.poll_dir("/g", cursor)
    assert events == [] and again == cursor


def test_poll_dir_is_directory_scoped(store):
    store.put("/g/a", b"one")
    store.put("/other/x", b"zzz")
    events, _ = store.poll_dir("/g")
    assert {e.path for e in events} == {"/g/a"}


def test_list_dir_immediate_children(store):
    store.put("/g/a", b"1")
    store.put("/g/sub/b", b"2")
    store.put("/h/c", b"3")
    assert store.list_dir("/g") == ["/g/a", "/g/sub"]


def test_compact_preserves_stale_cursor_view(store):
    store.put("/g/a", b"one")
    store.put("/g/b", b"two")
    store.commit(CloudBatch().delete("/g/a"))
    head = store.head_sequence()
    truncated = store.compact()
    assert truncated == 3
    assert store.snapshot_horizon() == head
    assert store.head_sequence() == head
    # A watcher from sequence zero still learns the full outcome,
    # including the tombstone for the deleted object.
    events, cursor = store.poll_dir("/g", 0)
    outcome = {e.path: e.kind for e in events}
    assert outcome == {"/g/a": "delete", "/g/b": "put"}
    assert cursor == head
    # Double compaction is a no-op.
    assert store.compact() == 0


def test_inspection_surface(store):
    store.put("/g/a", b"12345")
    store.put("/h/b", b"67")
    view = {obj.path: obj.data for obj in store.adversary_view()}
    assert view == {"/g/a": b"12345", "/h/b": b"67"}


def test_every_contract_method_has_a_caller():
    """The store serves only what something calls: each contract method
    is called somewhere outside the stores — in ``src/repro`` beyond
    ``cloud``, ``net`` and the fault decorator, in a benchmark or in an
    example.  Matched by attribute name, like ``test_tcb``'s ecall check,
    so a same-named method of another class also counts."""
    src = Path(repro.__file__).resolve().parent
    repo = src.parents[1]
    stores = (src / "cloud", src / "net", src / "faults" / "store.py")
    files = [path for path in src.rglob("*.py")
             if not any(path == s or s in path.parents for s in stores)]
    files += [*(repo / "benchmarks").rglob("*.py"),
              *(repo / "examples").glob("*.py")]
    called = {node.func.attr
              for path in files
              for node in ast.walk(ast.parse(path.read_text("utf-8")))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    uncalled = sorted({*contract_methods(), "put"} - called)
    assert not uncalled, f"contract methods nothing calls: {uncalled}"


def test_metrics_account_requests_and_bytes(store):
    store.put("/g/a", b"x" * 10)
    store.get("/g/a")
    assert store.metrics.requests >= 2
    assert store.metrics.bytes_in >= 10
    assert store.metrics.bytes_out >= 10
