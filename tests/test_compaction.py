"""Snapshot compaction across the stack: store truncation, crash
roll-forward, client snapshot bootstrap + resume cursor, admin
incremental sync, and the cold-start performance claim.

The invariant under test everywhere: state reconstructed from a
compacted store (snapshot + event suffix) is byte-identical to state
reconstructed by replaying the full, uncompacted history.
"""

from __future__ import annotations

import base64
import copy
import json
import shutil

import pytest

from repro.cloud import FileCloudStore
from repro.errors import CrashError, RevokedError, StorageError
from repro.faults import FaultInjector, FaultPlan, FaultyCloudStore, use_faults
from tests.conftest import make_system
from tests.test_footprint import cold_start, gate_system, history_store

GROUP = "g"


def make_filestore_system(root, seed="compact", capacity=4,
                          compact_every=None):
    """A quickstart deployment on a file-backed store."""
    store = FileCloudStore(root, compact_every=compact_every)
    return make_system(seed, capacity=capacity, cloud=store), store


def churn(admin, adds=(), removes=()):
    for user in adds:
        admin.add_user(GROUP, user)
    for user in removes:
        admin.remove_user(GROUP, user)


def state_digest(state):
    """Comparable image of an AdminGroupState (order-insensitive)."""
    return (
        state.epoch,
        state.table.next_partition_id,
        sorted(state.table.all_members()),
        {pid: record.payload() for pid, record in state.records.items()},
    )


class _CrashAt(FaultInjector):
    """Deterministically crash at one named crash point, once."""

    def __init__(self, name: str) -> None:
        super().__init__(FaultPlan(seed="crash-at"))
        self._name = name
        self.fired = False

    def crash_point(self, name: str) -> None:
        if name == self._name and not self.fired:
            self.fired = True
            raise CrashError(name)


class TestStoreTruncation:
    def test_empty_log_after_truncation_stays_consistent(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b", "c"])
        churn(system.admin, adds=["d"], removes=["b"])
        head = store.head_sequence()

        truncated = store.compact()
        assert truncated > 0
        assert (tmp_path / "c" / "events.jsonl").read_bytes() == b""
        assert store.snapshot_horizon() == head
        assert store.head_sequence() == head

        # New mutations continue the sequence past the horizon, and the
        # suffix is pollable while the prefix arrives synthetically.
        system.admin.add_user(GROUP, "e")
        assert store.head_sequence() > head
        events, cursor = store.poll_dir(f"/{GROUP}/", 0)
        assert cursor == store.head_sequence()
        assert any(e.sequence > head for e in events)

        reopened = FileCloudStore(tmp_path / "c")
        assert reopened.head_sequence() == store.head_sequence()
        assert reopened.snapshot_horizon() == head

    def test_compaction_rejects_bad_interval(self, tmp_path):
        with pytest.raises(StorageError):
            FileCloudStore(tmp_path / "bad", compact_every=0)

    def test_double_compaction_is_idempotent(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b", "c", "d", "e"])
        churn(system.admin, removes=["b"])
        assert store.compact() > 0
        manifest = (tmp_path / "c" / "snapshot.json").read_bytes()
        horizon = store.snapshot_horizon()

        assert store.compact() == 0
        assert (tmp_path / "c" / "snapshot.json").read_bytes() == manifest
        assert store.snapshot_horizon() == horizon

    def test_auto_compaction_triggers_on_interval(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c",
                                              compact_every=3)
        system.admin.create_group(GROUP, ["a", "b", "c"])
        churn(system.admin, adds=["d", "e"], removes=["a"])
        assert store.snapshot_horizon() > 0
        snapshot = store.metrics.registry.snapshot()
        assert snapshot["cloud.compactions"] >= 1

    def test_faulty_wrapper_passes_compaction_through(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b"])
        wrapped = FaultyCloudStore(store, FaultInjector(FaultPlan.disabled()))
        assert wrapped.compact() > 0
        assert wrapped.snapshot_horizon() == store.snapshot_horizon()
        assert wrapped.head_sequence() == store.head_sequence()


class TestCrashMidCompaction:
    def _build(self, root):
        system, store = make_filestore_system(root)
        system.admin.create_group(GROUP, ["a", "b", "c", "d", "e"])
        churn(system.admin, adds=["f"], removes=["b", "d"])
        return system, store

    @pytest.mark.parametrize("point", ["cloud.compact.journaled",
                                       "cloud.compact.snapshot_written"])
    def test_crash_rolls_forward_on_reopen(self, tmp_path, point):
        system, store = self._build(tmp_path / "c")
        shutil.copytree(tmp_path / "c", tmp_path / "control")

        with use_faults(_CrashAt(point)):
            with pytest.raises(CrashError):
                store.compact()
        assert (tmp_path / "c" / "compact.journal").exists()

        # The restarted process rolls the compaction forward.
        recovered = FileCloudStore(tmp_path / "c")
        assert not (tmp_path / "c" / "compact.journal").exists()
        metrics = recovered.metrics.registry.snapshot()
        assert metrics["cloud.recoveries"] == 1

        control = FileCloudStore(tmp_path / "control")
        control.compact()
        assert recovered.snapshot_horizon() == control.snapshot_horizon()
        assert ((tmp_path / "c" / "snapshot.json").read_bytes()
                == (tmp_path / "control" / "snapshot.json").read_bytes())
        ours, cursor = recovered.poll_dir(f"/{GROUP}/", 0)
        theirs, control_cursor = control.poll_dir(f"/{GROUP}/", 0)
        assert cursor == control_cursor
        assert ([(e.sequence, e.path, e.kind, e.version) for e in ours]
                == [(e.sequence, e.path, e.kind, e.version) for e in theirs])

    def test_crash_after_snapshot_written_hand_built(self, tmp_path):
        """The on-disk state a crash leaves between the snapshot write
        and the event-log truncation: journal + snapshot installed,
        events untouched.  Built by hand because an injected crash at
        ``snapshot_written`` unwinds before truncation anyway — this
        pins the recovery contract independently of the injector."""
        self._build(tmp_path / "c")
        shutil.copytree(tmp_path / "c", tmp_path / "done")
        done = FileCloudStore(tmp_path / "done")
        done.compact()
        manifest = (tmp_path / "done" / "snapshot.json").read_bytes()

        (tmp_path / "c" / "compact.journal").write_bytes(manifest)
        (tmp_path / "c" / "snapshot.json").write_bytes(manifest)
        # events.jsonl still holds the full history: the torn state.
        assert (tmp_path / "c" / "events.jsonl").stat().st_size > 0

        recovered = FileCloudStore(tmp_path / "c")
        assert (tmp_path / "c" / "events.jsonl").read_bytes() == b""
        assert not (tmp_path / "c" / "compact.journal").exists()
        assert recovered.snapshot_horizon() == done.snapshot_horizon()
        assert recovered.head_sequence() == done.head_sequence()


class TestClientBootstrap:
    def test_fresh_client_equivalence_after_compaction(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b", "c", "d"])
        churn(system.admin, adds=["e", "f"], removes=["b"])
        shutil.copytree(tmp_path / "c", tmp_path / "full")
        store.compact()

        compacted_client = system.make_client(GROUP, "a")
        compacted_client.sync()

        # Control: the same user replaying the full uncompacted history.
        system.rebind_store(FileCloudStore(tmp_path / "full"))
        replay_client = system.make_client(GROUP, "a")
        replay_client.sync()

        assert (compacted_client.current_group_key()
                == replay_client.current_group_key())
        assert (compacted_client.state.record.payload()
                == replay_client.state.record.payload())
        snapshot = compacted_client.registry.snapshot()
        assert snapshot["client.snapshot_bootstraps"] == 1

    def test_zero_suffix_events_bootstrap(self, tmp_path):
        """Snapshot holding the whole history, not one trailing event."""
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b"])
        store.compact()
        assert (tmp_path / "c" / "events.jsonl").read_bytes() == b""

        client = system.make_client(GROUP, "a")
        assert client.sync() is True
        assert len(client.current_group_key()) == 32
        assert client.state.poll_cursor == store.snapshot_horizon()

    def test_revoked_user_sees_revocation_via_bootstrap(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b", "c"])
        system.admin.remove_user(GROUP, "b")
        store.compact()

        revoked = system.make_client(GROUP, "b")
        revoked.sync()
        with pytest.raises(RevokedError):
            revoked.current_group_key()


class TestResumeCursor:
    def test_resume_cursor_past_truncated_prefix(self, tmp_path):
        """A client that last synced *before* a compaction resumes via
        snapshot bootstrap, not by replaying events that no longer
        exist."""
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b", "c"])
        resume = tmp_path / "resume-a.json"
        client = system.make_client(GROUP, "a")
        client.resume_path = resume
        client.sync()
        stale_cursor = client.state.poll_cursor

        churn(system.admin, adds=["d", "e"], removes=["b"])
        store.compact()
        assert stale_cursor < store.snapshot_horizon()

        restarted = system.make_client(GROUP, "a")
        restarted.resume_path = resume
        restarted._load_resume()
        assert restarted.state.poll_cursor == stale_cursor
        restarted.sync()
        snapshot = restarted.registry.snapshot()
        assert snapshot["client.resume_loads"] == 1
        assert snapshot["client.snapshot_bootstraps"] == 1
        assert restarted.state.poll_cursor >= store.snapshot_horizon()

        control = system.make_client(GROUP, "a")
        control.sync()
        assert (restarted.current_group_key()
                == control.current_group_key())

    def test_resume_roundtrip_without_compaction(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b"])
        resume = tmp_path / "resume.json"
        client = system.make_client(GROUP, "a")
        client.resume_path = resume
        client.sync()
        key = client.current_group_key()

        restarted = system.make_client(GROUP, "a")
        restarted.resume_path = resume
        restarted._load_resume()
        assert restarted.state.poll_cursor == client.state.poll_cursor
        assert restarted.state.record is not None
        # No new events: the resumed client derives the key without any
        # further record installation.
        restarted.sync()
        assert restarted.current_group_key() == key

    def test_tampered_resume_file_is_ignored(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b"])
        resume = tmp_path / "resume.json"
        client = system.make_client(GROUP, "a")
        client.resume_path = resume
        client.sync()

        payload = json.loads(resume.read_text("utf-8"))
        blob = bytearray(base64.b64decode(payload["record"]))
        blob[8] ^= 0x01
        payload["record"] = base64.b64encode(bytes(blob)).decode("ascii")
        resume.write_text(json.dumps(payload), encoding="utf-8")

        restarted = system.make_client(GROUP, "a")
        restarted.resume_path = resume
        restarted._load_resume()
        assert restarted.state.record is None      # cold start
        assert restarted.state.poll_cursor == 0
        restarted.sync()
        assert restarted.current_group_key() == client.current_group_key()

    def test_resume_record_bound_to_its_saved_partition(self, tmp_path):
        """The saved record must be the one of the saved partition id,
        as a fetched record must be the one of the path requested."""
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b"])
        resume = tmp_path / "resume.json"
        client = system.make_client(GROUP, "a")
        client.resume_path = resume
        client.sync()

        payload = json.loads(resume.read_text("utf-8"))
        payload["partition_id"] += 1
        resume.write_text(json.dumps(payload), encoding="utf-8")

        restarted = system.make_client(GROUP, "a")
        restarted.resume_path = resume
        restarted._load_resume()
        assert restarted.state.record is None      # cold start
        assert restarted.state.poll_cursor == 0

    def test_foreign_identity_resume_ignored(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        system.admin.create_group(GROUP, ["a", "b"])
        resume = tmp_path / "resume.json"
        client = system.make_client(GROUP, "a")
        client.resume_path = resume
        client.sync()

        other = system.make_client(GROUP, "b")
        other.resume_path = resume
        other._load_resume()
        assert other.state.record is None
        assert other.state.poll_cursor == 0


class TestAdminIncrementalSync:
    def test_sync_group_matches_full_reload(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c", capacity=2)
        admin = system.admin
        admin.create_group(GROUP, [f"u{i}" for i in range(6)])
        stale = copy.deepcopy(admin.cache.get(GROUP))

        churn(admin, adds=["v0", "v1"], removes=["u0", "u3"])
        authoritative = state_digest(admin.load_group_from_cloud(GROUP))

        admin.cache.put(stale)
        assert admin.sync_group(GROUP) is True
        assert state_digest(admin.cache.get(GROUP)) == authoritative

    def test_sync_group_across_compacted_prefix(self, tmp_path):
        """The changes the stale admin missed were compacted away; the
        synthetic snapshot events must carry it to parity anyway."""
        system, store = make_filestore_system(tmp_path / "c", capacity=2)
        admin = system.admin
        admin.create_group(GROUP, [f"u{i}" for i in range(6)])
        stale = copy.deepcopy(admin.cache.get(GROUP))

        churn(admin, adds=["v0"], removes=["u1", "u4"])
        store.compact()
        assert stale.sync_cursor < store.snapshot_horizon()
        authoritative = state_digest(admin.load_group_from_cloud(GROUP))

        admin.cache.put(stale)
        assert admin.sync_group(GROUP) is True
        assert state_digest(admin.cache.get(GROUP)) == authoritative

    def test_sync_group_no_changes_is_cheap_noop(self, tmp_path):
        system, store = make_filestore_system(tmp_path / "c")
        admin = system.admin
        admin.create_group(GROUP, ["a", "b", "c"])
        admin.load_group_from_cloud(GROUP)
        before = state_digest(admin.cache.get(GROUP))
        requests_before = store.metrics.requests

        assert admin.sync_group(GROUP) is False
        assert state_digest(admin.cache.get(GROUP)) == before
        assert store.metrics.requests - requests_before == 1  # one poll


class TestColdStartPerformance:
    def test_snapshot_cold_start_beats_full_replay(self, tmp_path,
                                                   monkeypatch):
        """Bootstrapping from a compacted store parses none of the event
        history that a full replay parses: the event records the cold
        start reads out of ``events.jsonl`` are counted, not timed.  The
        bytes read are pinned, and shown equal on both stores, in
        ``tests/test_footprint.py``."""
        parsed = []
        read_events = FileCloudStore._read_events

        def counted(store):
            events = read_events(store)
            parsed.append(len(events))
            return events

        def records_parsed(root):
            with gate_system("cold", capacity=8) as system:
                system.user_key("u0")   # provisioning is not a restart
                parsed.clear()
                cold_start(system, root)
                return sum(parsed)

        history_store(tmp_path / "replay", 3000)
        shutil.copytree(tmp_path / "replay", tmp_path / "snapshot")
        FileCloudStore(tmp_path / "snapshot").compact()
        monkeypatch.setattr(FileCloudStore, "_read_events", counted)
        # 3 000 filler events and the group's 6, read once, by the new
        # client's one poll: opening the store parses only the log's
        # last line for its head.
        assert records_parsed(tmp_path / "replay") == 3006
        assert records_parsed(tmp_path / "snapshot") == 0
