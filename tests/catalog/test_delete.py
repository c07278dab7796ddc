"""Deletion: un-record, then remove the file, under the shard lock.

``delete_object`` appends the ``objects`` ``del`` record before the
file goes, so a deleter killed at any protocol point leaves either
nothing done, or an intact file no record points at — an unreferenced
object that verifies and that the next gc reclaims — never a record
without its file.  Any interleaving of add/remove/compact deltas
(threads, processes, crashes) replays to the same live-object set.
"""

import json
import os

import pytest

from repro.catalog import Catalog, CatalogStore
from repro.dataframe.table import Table
from tests.harness.entries import make_entry, same_shard_fingerprints
from tests.harness.faults import (
    InjectedCrash,
    crash_at,
    exit_hook,
    run_killed,
    run_ok,
    torn_log,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture
def store(tmp_path):
    return CatalogStore(str(tmp_path / "cat"))


def write(store, fingerprint):
    store.write_object(
        fingerprint, {"name": fingerprint}, {"c": make_entry({fingerprint})}
    )


def recorded(store, fingerprint):
    shard_dir = store._object_shard_dir(fingerprint)
    return fingerprint in store._read_shard_section(shard_dir, "objects")


class TestDeleteProtocol:
    def test_delete_removes_and_unrecords(self, store):
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        store.delete_object(fp)
        assert not store.has_object(fp)
        assert store.list_objects() == []
        assert not recorded(store, fp)
        assert store.verify()["problems"] == []

    def test_delete_of_absent_is_a_no_op(self, store):
        store.delete_object("never-written")
        assert not os.path.exists(store._object_shard_dir("never-written"))
        assert store.verify()["problems"] == []

    def test_write_after_delete(self, store):
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        store.delete_object(fp)
        write(store, fp)
        assert store.has_object(fp)
        assert recorded(store, fp)
        assert store.verify()["problems"] == []

    def test_delete_write_delete_converges(self, store):
        """Any add/remove interleaving ends in the last operation's
        state, never a mixed one."""
        fp = same_shard_fingerprints(1)[0]
        for _round in range(3):
            write(store, fp)
            store.delete_object(fp)
        assert not store.has_object(fp)
        assert store.verify()["problems"] == []
        write(store, fp)
        assert store.has_object(fp)
        assert recorded(store, fp)

    def test_delete_spares_shard_neighbours(self, store):
        first, second, third = same_shard_fingerprints(3)
        for fp in (first, second, third):
            write(store, fp)
        store.delete_object(second)
        assert store.list_objects() == sorted([first, third])
        assert recorded(store, first) and recorded(store, third)
        assert store.read_object(third)[0] == {"name": third}
        assert store.verify()["problems"] == []

    def test_a_deleted_object_is_claimed_missing(self, store):
        """Adoption checks only that the file exists, so a builder that
        adopts a deleted object learns it must rewrite it."""
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        store.delete_object(fp)
        builder = CatalogStore(store.root)
        assert builder.claim_objects([fp]) == [fp]
        write(builder, fp)
        assert builder.claim_objects([fp]) == []
        assert store.verify()["problems"] == []

    def test_file_removed_even_when_bookkeeping_fails(self, store, monkeypatch):
        """An unwritable log/lock degrades the *bookkeeping* (swallowed
        OSError) — it must not veto the deletion itself."""
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)

        def broken(self, shard_dir, ops, between=None):
            return  # what the OSError swallow leaves: nothing ran

        monkeypatch.setattr(CatalogStore, "_apply_shard_ops", broken)
        store.delete_object(fp)
        assert not store.has_object(fp)


class TestCrashedDeleter:
    def test_deleter_dies_before_file_removal(self, store):
        """Killed after the un-record, before the file goes: the file is
        an intact, unreferenced object — the store verifies, and the
        next gc reclaims it."""
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        with crash_at(store, "shard-log-appended"):
            with pytest.raises(InjectedCrash):
                store.delete_object(fp)
        assert store.has_object(fp)
        assert not recorded(store, fp)
        assert store.verify()["problems"] == []
        assert store.gc([]) == 1
        assert not store.has_object(fp)
        assert store.verify()["problems"] == []

    def test_deleter_dies_after_file_removal(self, store):
        """Killed between file removal and compaction: the log replays
        the un-record, the next writer compacts."""
        first, second = same_shard_fingerprints(2)
        write(store, first)
        with crash_at(store, "object-files-removed"):
            with pytest.raises(InjectedCrash):
                store.delete_object(first)
        assert not store.has_object(first)
        assert store.verify()["problems"] == []
        write(store, second)  # compacts the shard
        assert not os.path.exists(
            store._shard_log_path(store._object_shard_dir(first))
        )
        assert not recorded(store, first)
        assert store.verify()["problems"] == []

    def test_write_after_crashed_delete_keeps_the_object(self, store):
        """Re-adding the fingerprint a crashed deleter left on disk adopts
        the file (equal fingerprint, equal bytes): the writer's claim
        spares it from a peer's gc."""
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        with crash_at(store, "shard-log-appended"):
            with pytest.raises(InjectedCrash):
                store.delete_object(fp)
        write(store, fp)
        peer = CatalogStore(store.root)
        assert peer.gc([]) == 0
        assert peer.last_gc["skipped_leased"] == 1
        assert store.read_object(fp)[0] == {"name": fp}
        assert store.verify()["problems"] == []


class TestShardManifestsFromBeforeThisRelease:
    """Layout-3 shard manifests written by the tombstone-log releases
    still open: the leftover ``tombstones`` section is inert."""

    def test_a_crashed_deleters_leftovers_are_adopted_then_reclaimed(
        self, store
    ):
        fp, other = same_shard_fingerprints(2)
        write(store, fp)
        write(store, other)
        store.release_writer_lease()
        shard_dir = store._object_shard_dir(fp)
        # What a deleter killed before file removal left: the object
        # un-recorded and tombstoned, its file intact.
        objects = store._read_shard_section(shard_dir, "objects")
        del objects[fp]
        with open(os.path.join(shard_dir, "manifest.json"), "w") as handle:
            json.dump(
                {"objects": objects, "tombstones": {fp: {"ts": 1.0}}}, handle
            )

        reopened = CatalogStore(store.root)
        assert reopened.list_objects() == sorted([fp, other])
        assert reopened.verify()["problems"] == []

        builder = CatalogStore(store.root)
        assert builder.claim_objects([fp]) == []
        assert builder.read_object(fp)[0] == {"name": fp}
        assert reopened.gc([other]) == 0  # claimed: spared
        builder.release_writer_lease()
        assert reopened.gc([other]) == 1
        assert reopened.list_objects() == [other]
        assert reopened.verify()["problems"] == []


def _killed_deleter(root, fingerprint):
    store = CatalogStore(root)
    store.fault_hook = exit_hook("shard-log-appended")
    store.delete_object(fingerprint)


def _deleting_writer(root, fingerprints):
    store = CatalogStore(root)
    for fp in fingerprints:
        store.write_object(fp, {"name": fp}, {"c": make_entry({fp})})
        store.delete_object(fp)
        store.write_object(fp, {"name": fp}, {"c": make_entry({fp})})


class TestProcessDeleters:
    def test_killed_deleter_process_leaves_verifiable_store(self, store):
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        run_killed(_killed_deleter, (store.root, fp))
        assert store.verify()["problems"] == []
        assert store.gc([]) == 1
        assert not store.has_object(fp)
        assert store.verify()["problems"] == []

    def test_concurrent_add_remove_across_processes(self, store):
        """Four processes add/remove/re-add disjoint fingerprints in one
        shard; every final re-add must survive, the store must verify."""
        fingerprints = same_shard_fingerprints(16)
        chunks = [fingerprints[i::4] for i in range(4)]
        run_ok([(_deleting_writer, (store.root, chunk)) for chunk in chunks])
        assert store.list_objects() == sorted(fingerprints)
        assert all(recorded(store, fp) for fp in fingerprints)
        assert store.verify()["problems"] == []

    def test_gc_races_builder(self, tmp_path):
        """A gc'ing catalog process next to a building one.

        Deletions and additions compose at the protocol level (no file
        or manifest ever torn, the keepers always survive).  Liveness is
        temporal, though: the gc may reclaim an object the builder wrote
        but had not yet saved a manifest reference to — the documented
        heal path (refresh against the live corpus recomputes and
        re-persists) must then restore a fully verifying store."""
        root = str(tmp_path / "cat")

        def _keepers():
            return [
                Table(f"k{i}", {"c": [f"v{i}", f"w{i}"]}) for i in range(4)
            ]

        def _additions():
            return [Table(f"n{i}", {"c": [f"z{i}"]}) for i in range(3)]

        drop = [Table(f"d{i}", {"c": [f"x{i}", f"y{i}"]}) for i in range(4)]
        seeded = Catalog.open(root, num_perm=8, bands=4)
        seeded.refresh(_keepers() + drop)
        seeded.save()

        def _gc_worker(root):
            catalog = Catalog.load(root)
            catalog.refresh(_keepers())
            catalog.save()
            catalog.gc()

        def _build_worker(root):
            catalog = Catalog.load(root)
            catalog.refresh(_keepers() + _additions())
            catalog.save()

        run_ok([(_gc_worker, (root,)), (_build_worker, (root,))])
        manifest = CatalogStore(root).read_manifest()
        # The keepers survive both writers unconditionally.
        assert {f"k{i}" for i in range(4)} <= set(manifest["tables"])
        # Reconcile: one refresh against the live corpus re-signs any
        # object the racing gc reclaimed before the builder's save
        # landed; afterwards the store must verify clean.
        live = {t.name: t for t in _keepers() + _additions()}
        survivors = [live[name] for name in manifest["tables"] if name in live]
        healed = Catalog.load(root, corpus=survivors)
        healed.save()
        assert healed.verify()["problems"] == []


# ----------------------------------------------------------------------
# Property tests: interleaved deltas replay to the model's live set
# ----------------------------------------------------------------------
_KEYS = same_shard_fingerprints(4)


def _ops():
    return st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "compact"]),
            st.sampled_from(_KEYS),
        ),
        min_size=1,
        max_size=12,
    )


class TestDeleteProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops())
    def test_interleavings_replay_to_model_live_set(self, tmp_path_factory, ops):
        """Any sequence of add/remove/compact deltas leaves exactly the
        model's live set, recorded and on disk, and a clean verify."""
        store = CatalogStore(str(tmp_path_factory.mktemp("del") / "cat"))
        model = set()
        for op, key in ops:
            if op == "add":
                write(store, key)
                model.add(key)
            elif op == "remove":
                store.delete_object(key)
                model.discard(key)
            else:
                # An unrelated writer in the shard: forces a compaction
                # pass over whatever the log currently holds.
                store.write_profiles("compactor", {"k": [1.0]})
        assert set(store.list_objects()) == model
        shard_dir = store._object_shard_dir(_KEYS[0])
        assert set(store._read_shard_section(shard_dir, "objects")) == model
        assert store.verify()["problems"] == []

    @settings(max_examples=15, deadline=None)
    @given(ops=_ops())
    def test_every_log_prefix_verifies(self, tmp_path_factory, ops):
        """Replay the same delta sequence as raw log records: after
        every prefix the shard reads back exactly the records applied so
        far and the full store verifies — the crash guarantee at every
        possible cut point, torn tail or not."""
        store = CatalogStore(str(tmp_path_factory.mktemp("del") / "cat"))
        # Materialize every fingerprint once so files exist, then build
        # a pure log-replay scenario over them.
        for key in _KEYS:
            write(store, key)
        shard_dir = store._object_shard_dir(_KEYS[0])
        records = []
        for op, key in ops:
            if op == "add":
                records.append(
                    {"section": "objects", "op": "set", "key": key, "value": 2}
                )
            elif op == "remove":
                records.append({"section": "objects", "op": "del", "key": key})
        log_path = store._shard_log_path(shard_dir)
        for prefix in range(len(records) + 1):
            expected = set(_KEYS)
            for record in records[:prefix]:
                if record["op"] == "set":
                    expected.add(record["key"])
                else:
                    expected.discard(record["key"])
            torn_log(log_path, records[:prefix])
            objects = store._read_shard_section(shard_dir, "objects")
            assert set(objects) == expected
            assert store.verify()["problems"] == []
            # A torn tail on top of the prefix must not change the
            # replayed state either.
            torn_log(
                log_path, records[:prefix], torn_tail='{"section": "obj'
            )
            assert store._read_shard_section(shard_dir, "objects") == objects
        os.remove(log_path)
