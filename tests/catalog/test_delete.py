"""Deletion: remove the file under the shard lock.

An object is its file, so deleting one is a single ``remove`` under the
shard lock: a deleter killed at any moment leaves either nothing done
or the object gone — never a half-deleted object.  Any interleaving of
adds and removes (threads, processes) ends in the model's live set.
"""

import json
import os

import pytest

from repro.catalog import Catalog, CatalogStore, LocalFSBackend
from repro.dataframe.table import Table
from tests.harness.entries import make_entry, same_shard_fingerprints
from tests.harness.faults import KILLED_EXIT_CODE, run_killed, run_ok

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


class TestRewriteClaims:
    def test_rewrite_of_an_unreferenced_object_claims_it(self, store):
        """Re-adding a fingerprint whose file is still on disk (nothing
        references it, no lease claims it) adopts the file — equal
        fingerprint, equal bytes — and the writer's claim spares it
        from a peer's gc."""
        fp = same_shard_fingerprints(1)[0]
        write(store, fp)
        store.release_writer_lease()
        builder = CatalogStore(store.root)
        write(builder, fp)
        peer = CatalogStore(store.root)
        assert peer.gc([]) == 0
        assert peer.last_gc["skipped_leased"] == 1
        assert store.read_object(fp)[0] == {"name": fp}
        assert store.verify()["problems"] == []
        builder.release_writer_lease()
        assert peer.gc([]) == 1


class TestLeftoverShardManifestsAreInert:
    """Shard ``manifest.json`` / ``manifest.log`` files, as a layout-3
    writer left them, are not objects and carry no ownership: listing,
    verify, claims and gc go by the ``.bin`` files and the lease claims
    alone, and never touch them."""

    def test_leftover_bookkeeping_is_neither_read_nor_collected(self, store):
        fp, other = same_shard_fingerprints(2)
        write(store, fp)
        write(store, other)
        store.release_writer_lease()
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

        builder = CatalogStore(store.root)
        assert builder.claim_objects([fp, "ghost"]) == ["ghost"]
        assert reopened.gc([other]) == 0  # claimed: spared
        builder.release_writer_lease()
        assert reopened.gc([other]) == 1
        assert reopened.list_objects() == [other]
        assert reopened.verify()["problems"] == []
        for name, data in leftovers.items():
            assert store.backend.read_bytes(os.path.join(shard_dir, name)) == data


class _DyingRemoveBackend(LocalFSBackend):
    """Dies (a real process exit) at the moment a file would be
    removed."""

    def remove(self, path):
        os._exit(KILLED_EXIT_CODE)


def _killed_deleter(root, fingerprint):
    store = CatalogStore(root, backend=_DyingRemoveBackend(root))
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
        store.release_writer_lease()
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
