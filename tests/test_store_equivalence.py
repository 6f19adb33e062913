"""Model-based equivalence of the in-memory and file-backed cloud stores.

Random operation sequences must produce identical observable behaviour
(results, errors, event streams) from :class:`CloudStore` and
:class:`FileCloudStore` — the system code treats them interchangeably.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import CloudBatch, CloudStore, FileCloudStore
from repro.errors import ConflictError, NotFoundError

PATHS = ["/g/p0", "/g/p1", "/g/descriptor", "/h/p0"]

batch_ops = st.lists(
    st.one_of(
        st.tuples(st.just("bput"), st.sampled_from(PATHS),
                  st.binary(max_size=8)),
        st.tuples(st.just("bcput"), st.sampled_from(PATHS),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("bdel"), st.sampled_from(PATHS),
                  st.booleans()),
    ),
    min_size=1, max_size=4,
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(PATHS),
                  st.binary(max_size=16)),
        st.tuples(st.just("cput"), st.sampled_from(PATHS),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("get"), st.sampled_from(PATHS)),
        st.tuples(st.just("delete"), st.sampled_from(PATHS)),
        st.tuples(st.just("list"), st.sampled_from(["/g", "/h"])),
        st.tuples(st.just("poll"), st.sampled_from(["/g", "/h"])),
        st.tuples(st.just("commit"), batch_ops),
        st.tuples(st.just("get_many"),
                  st.lists(st.sampled_from(PATHS), max_size=4)),
    ),
    max_size=25,
)


def _build_batch(specs) -> CloudBatch:
    batch = CloudBatch()
    for spec in specs:
        if spec[0] == "bput":
            batch.put(spec[1], spec[2])
        elif spec[0] == "bcput":
            batch.put(spec[1], b"cond", expected_version=spec[2])
        else:
            batch.delete(spec[1], ignore_missing=spec[2])
    return batch


def _apply(store, op):
    """Run one op; normalize the outcome into comparable data."""
    kind = op[0]
    try:
        if kind == "put":
            return ("version", store.put(op[1], op[2]))
        if kind == "cput":
            return ("version",
                    store.put(op[1], b"cond", expected_version=op[2]))
        if kind == "get":
            obj = store.get(op[1])
            return ("object", obj.data, obj.version)
        if kind == "delete":
            store.commit(CloudBatch().delete(op[1]))
            return ("deleted",)
        if kind == "list":
            return ("listing", tuple(store.list_dir(op[1])))
        if kind == "poll":
            events, cursor = store.poll_dir(op[1])
            return ("events",
                    tuple((e.path, e.kind, e.version) for e in events),
                    cursor)
        if kind == "commit":
            versions = store.commit(_build_batch(op[1]))
            return ("committed", tuple(sorted(versions.items())))
        if kind == "get_many":
            objects = store.get_many(op[1])
            return ("objects",
                    tuple(sorted((p, o.data, o.version)
                                 for p, o in objects.items())))
        raise AssertionError(kind)
    except NotFoundError:
        return ("error", "not-found")
    except ConflictError:
        return ("error", "conflict")


@given(ops=operations)
@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_stores_behave_identically(tmp_path_factory, ops):
    memory = CloudStore()
    disk = FileCloudStore(tmp_path_factory.mktemp("store"))
    for index, op in enumerate(ops):
        left = _apply(memory, op)
        right = _apply(disk, op)
        assert left == right, f"divergence at op {index}: {op}"
    # Final adversary views agree.
    mem_view = {o.path: (o.data, o.version) for o in memory.adversary_view()}
    disk_view = {o.path: (o.data, o.version) for o in disk.adversary_view()}
    assert mem_view == disk_view
