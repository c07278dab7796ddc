"""Deletion: remove the file under the shard lock.

An object is its file, so deleting one is a single ``remove`` under the
shard lock: a deleter killed at any moment leaves either nothing done
or the object gone — never a half-deleted object.  Any interleaving of
adds and removes (threads, processes) ends in the model's live set.
"""

import json
import os

import pytest

from repro.catalog import Catalog, CatalogStore
from repro.dataframe.table import Table
from tests.harness.entries import make_entry, same_shard_fingerprints
from tests.harness.faults import DyingBackend, run_killed, run_ok

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture
def store(tmp_path):
    return CatalogStore(str(tmp_path / "cat"))


def write(store, fingerprint):
    store.write_object(
        fingerprint, {"name": fingerprint}, {"c": make_entry({fingerprint})}
    )


class TestDeleteProtocol:
    def test_delete_removes_the_file(self, store):
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        store.delete_object(fp)
        assert not store.has_object(fp)
        assert store.list_objects() == []
        assert os.listdir(store._object_shard_dir(fp)) == [".lock"]
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
        assert store.read_object(fp)[0] == {"name": fp}
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

    def test_delete_spares_shard_neighbours(self, store):
        first, second, third = same_shard_fingerprints(3)
        for fp in (first, second, third):
            write(store, fp)
        store.delete_object(second)
        assert store.list_objects() == sorted([first, third])
        assert store.read_object(third)[0] == {"name": third}
        assert store.verify()["problems"] == []

    def test_an_adopted_object_deleted_before_save_is_rederived(self, tmp_path):
        """Adoption only reads, so a builder that adopted an object that
        is then deleted learns it at save, which rewrites it."""
        root = str(tmp_path / "cat")
        tables = [Table(f"t{i}", {"c": [f"v{i}", f"w{i}"]}) for i in range(2)]
        seeded = Catalog(CatalogStore(root), num_perm=8, bands=4)
        seeded.refresh(tables)
        seeded.save()
        seeded.refresh(tables[:1])
        seeded.save()  # t1's object is on disk, unreferenced
        builder = Catalog.load(root, corpus=tables)
        assert builder.computed_columns == 0  # t1 adopted from disk
        t1_object = builder._object_id(builder.fingerprints["t1"])
        builder.store.delete_object(t1_object)
        builder.save()
        assert builder.computed_columns == 1
        assert builder.store.has_object(t1_object)
        assert builder.verify()["problems"] == []


class TestRewriteOfAnUnreferencedObject:
    def test_readding_adopts_the_file_and_save_restores_it(self, tmp_path):
        """Re-adding content whose file is still on disk (nothing
        references it) adopts the file — equal fingerprint, equal bytes;
        a peer's gc may still reclaim it before the save, which then
        writes the same bytes again."""
        root = str(tmp_path / "cat")
        table = Table("t", {"c": ["a", "b"]})
        seeded = Catalog(CatalogStore(root), num_perm=8, bands=4)
        seeded.refresh([table])
        seeded.save()
        object_id = seeded._object_id(seeded.fingerprints["t"])
        path = seeded.store._object_path(object_id)
        original = seeded.store.backend.read_bytes(path)
        seeded.refresh([])
        seeded.save()

        builder = Catalog.load(root)
        builder.add(table)
        assert builder.computed_columns == 0
        assert Catalog.load(root).gc() == 1
        builder.save()
        assert builder.computed_columns == 1
        assert builder.store.backend.read_bytes(path) == original
        assert builder.verify()["problems"] == []


class TestLeftoverShardManifestsAreInert:
    """Shard ``manifest.json`` / ``manifest.log`` files, as a layout-3
    writer left them, are not objects and carry no ownership: listing,
    verify and gc go by the ``.bin`` files alone, and never touch
    them."""

    def test_leftover_bookkeeping_is_neither_read_nor_collected(self, store):
        fp, other = same_shard_fingerprints(2)
        write(store, fp)
        write(store, other)
        shard_dir = store._object_shard_dir(fp)
        leftovers = {
            "manifest.json": json.dumps(
                {
                    "objects": {fp: {"codec": 2, "lease": 1}, "ghost": 2},
                    "tombstones": {fp: {"ts": 1.0}},
                }
            ).encode(),
            "manifest.log": b'{"section": "objects", "op": "del", "key": "',
        }
        for name, data in leftovers.items():
            store.backend.write_bytes(os.path.join(shard_dir, name), data)

        reopened = CatalogStore(store.root)
        assert reopened.list_objects() == sorted([fp, other])
        assert reopened.verify()["problems"] == []

        assert reopened.has_object(fp)
        assert not reopened.has_object("ghost")
        assert reopened.gc([other]) == 1
        assert reopened.list_objects() == [other]
        assert reopened.verify()["problems"] == []
        for name, data in leftovers.items():
            assert store.backend.read_bytes(os.path.join(shard_dir, name)) == data


def _killed_deleter(root, fingerprint):
    backend = DyingBackend(root, ".bin", op="remove", exit=True)
    store = CatalogStore(root, backend=backend)
    store.delete_object(fingerprint)


def _deleting_writer(root, fingerprints):
    store = CatalogStore(root)
    for fp in fingerprints:
        store.write_object(fp, {"name": fp}, {"c": make_entry({fp})})
        store.delete_object(fp)
        store.write_object(fp, {"name": fp}, {"c": make_entry({fp})})


class TestProcessDeleters:
    def test_killed_deleter_process_leaves_verifiable_store(self, store):
        """Killed holding the shard lock, before the file goes: the
        object is intact (and the lock released with the process), the
        store verifies and the next gc reclaims it."""
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        run_killed(_killed_deleter, (store.root, fp))
        assert store.read_object(fp)[0] == {"name": fp}
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
        assert store.verify()["problems"] == []

    def test_gc_races_builder(self, tmp_path):
        """A gc'ing catalog process next to a building one.

        Deletions and additions compose at the protocol level (no file
        or manifest ever torn, the keepers always survive).  The gc may
        reclaim an object the builder wrote but had not yet saved; the
        builder's save then re-derives it, so whichever order the two
        land in, the store verifies with no heal pass after."""
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
        # Both writers dropped the d tables; the builder's additions
        # survive whichever save landed last.
        assert set(manifest["tables"]) == {
            table.name for table in _keepers() + _additions()
        }
        assert Catalog.load(root).verify()["problems"] == []


# ----------------------------------------------------------------------
# Property test: interleaved adds and removes end in the model's live set
# ----------------------------------------------------------------------
_KEYS = same_shard_fingerprints(4)


def _ops():
    return st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "profile"]),
            st.sampled_from(_KEYS),
        ),
        min_size=1,
        max_size=12,
    )


class TestDeleteProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops())
    def test_interleavings_replay_to_model_live_set(self, tmp_path_factory, ops):
        """Any sequence of adds and removes (with unrelated profile
        writes between them) leaves exactly the model's live set on
        disk, and a clean verify."""
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
                # An unrelated writer elsewhere in the store.
                store.write_profiles("profiled", {"k": [1.0]})
        assert set(store.list_objects()) == model
        assert store.verify()["problems"] == []
