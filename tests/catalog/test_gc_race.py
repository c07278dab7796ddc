"""The gc liveness race, pinned end to end.

The race: a builder writes (or adopts) an object, a ``gc`` reclaims it
because no manifest references it yet, and the builder's ``save()``
then publishes a reference to nothing.  Two transitions close it, both
under the store's root lock:

* ``save()`` checks that every object its new manifest newly references
  exists, and re-derives any a ``gc`` reclaimed from the live table;
* ``gc`` reads the manifest and deletes what nothing references, and no
  save lands in between.

The price is recomputation: an object a ``gc`` reclaims between its
write and its save is signed again at save.  A builder killed before
its save leaves only unreferenced objects, which the next ``gc``
reclaims at once.

Every schedule here is driven deterministically: the builder and the
peer are separate catalog instances, and a transition that must wait is
held inside the other one by a backend that blocks on an event.
"""

import os
import threading

import pytest

from repro.catalog import Catalog, CatalogStore, LocalFSBackend
from repro.catalog.fingerprint import shard_of
from repro.dataframe.table import Table
from tests.harness.entries import make_entry
from tests.harness.faults import (
    KILLED_EXIT_CODE,
    DyingBackend,
    fork_context,
    run_killed,
)
from tests.harness.spy import SpyBackend

#: How long a transition that must wait is given to (wrongly) finish.
BLOCKED_FOR = 0.3


def write(store, fingerprint):
    store.write_object(
        fingerprint, {"name": fingerprint}, {"c": make_entry({fingerprint})}
    )


def _tables(*names):
    return [Table(name, {"c": [f"{name}{i}" for i in range(4)]}) for name in names]


def _manifest_tables(root):
    return sorted(CatalogStore(root).read_manifest()["tables"])


def _seed(root, *names):
    catalog = Catalog(CatalogStore(root), num_perm=8, bands=4)
    catalog.refresh(_tables(*names))
    catalog.save()
    return catalog.fingerprints


class HeldBackend(LocalFSBackend):
    """The local backend, stopping the first ``op`` (``"write"`` or
    ``"remove"``) of a path ending with ``suffix``: it sets
    :attr:`reached` and waits for :attr:`release` before the file
    changes."""

    def __init__(self, root, suffix, op="write"):
        super().__init__(root)
        self.suffix = suffix
        self.op = op
        self.reached = threading.Event()
        self.release = threading.Event()

    def _hold(self, op, path):
        if op == self.op and path.endswith(self.suffix) and not self.reached.is_set():
            self.reached.set()
            assert self.release.wait(timeout=30)

    def write_stream(self, path):
        self._hold("write", path)
        return super().write_stream(path)

    def remove(self, path):
        self._hold("remove", path)
        return super().remove(path)


def _start(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


class TestGcBetweenWriteAndSave:
    def test_save_rederives_a_written_object_gc_reclaimed(self, tmp_path):
        """The canonical schedule: the builder signs ``c``, a peer's gc
        reclaims it (nothing references it yet), and the builder's save
        finds it missing and signs it again."""
        root = str(tmp_path / "cat")
        _seed(root, "a", "b")
        builder = Catalog.load(root, corpus=_tables("a", "b", "c"))
        assert builder.computed_columns == 1
        c_object = builder._object_id(builder.fingerprints["c"])

        assert Catalog.load(root).gc() == 1
        assert not builder.store.has_object(c_object)

        builder.save()
        assert builder.computed_columns == 2  # c re-derived at save
        assert builder.store.has_object(c_object)
        assert _manifest_tables(root) == ["a", "b", "c"]
        assert Catalog.load(root).verify()["problems"] == []

    def test_gc_reclaims_every_object_outside_the_live_set(self, tmp_path):
        """The caller's live set is the whole answer: whoever wrote the
        other objects, they are garbage."""
        store = CatalogStore(str(tmp_path / "cat"))
        write(store, "aaaa0001")
        write(store, "bbbb0002")
        assert store.gc(["aaaa0001"]) == 1
        assert store.list_objects() == ["aaaa0001"]

    def test_unsaved_writes_are_garbage_to_a_peer_gc(self, tmp_path):
        """Three written-but-unsaved objects against a peer's
        ``gc(set())``: nothing holds them, so all three go."""
        root = str(tmp_path / "cat")
        builder = CatalogStore(root)
        for fingerprint in ("aaaa0001", "bbbb0002", "cccc0003"):
            write(builder, fingerprint)
        assert CatalogStore(root).gc(set()) == 3
        assert builder.list_objects() == []
        assert builder.verify()["problems"] == []


class TestTransitionsShareTheRootLock:
    def test_gc_waits_for_a_save_in_progress(self, tmp_path):
        """A gc that starts while a save holds the root lock waits, then
        reads the manifest that save wrote: the builder's fresh object
        is referenced by the time gc looks."""
        root = str(tmp_path / "cat")
        _seed(root, "a")
        held = HeldBackend(root, "snapshot.npz")
        builder = Catalog.load(
            CatalogStore(root, backend=held), corpus=_tables("a", "b")
        )
        b_object = builder._object_id(builder.fingerprints["b"])
        peer = Catalog.load(root)
        removed = []

        saving = _start(builder.save)
        assert held.reached.wait(timeout=30)
        collecting = _start(lambda: removed.append(peer.gc()))
        collecting.join(BLOCKED_FOR)
        assert collecting.is_alive()  # waiting on the root lock
        held.release.set()
        saving.join(timeout=30)
        collecting.join(timeout=30)

        assert removed == [0]
        assert builder.computed_columns == 1  # nothing re-derived
        assert peer.store.has_object(b_object)
        assert _manifest_tables(root) == ["a", "b"]
        assert Catalog.load(root).verify()["problems"] == []

    def test_save_waits_for_a_gc_in_progress(self, tmp_path):
        """A save that starts while a gc holds the root lock waits for
        the pass to end, then finds the object the pass reclaimed
        missing and re-derives it."""
        root = str(tmp_path / "cat")
        _seed(root, "a")
        builder = Catalog.load(root, corpus=_tables("a", "b"))
        b_object = builder._object_id(builder.fingerprints["b"])
        held = HeldBackend(root, ".bin", op="remove")
        peer = Catalog.load(CatalogStore(root, backend=held))
        removed = []

        collecting = _start(lambda: removed.append(peer.gc()))
        assert held.reached.wait(timeout=30)
        saving = _start(builder.save)
        saving.join(BLOCKED_FOR)
        assert saving.is_alive()  # waiting on the root lock
        held.release.set()
        collecting.join(timeout=30)
        saving.join(timeout=30)

        assert removed == [1]
        assert builder.computed_columns == 2  # b signed, reclaimed, re-signed
        assert builder.store.has_object(b_object)
        assert _manifest_tables(root) == ["a", "b"]
        assert Catalog.load(root).verify()["problems"] == []

    def test_catalog_gc_reads_the_current_manifest(self, tmp_path):
        """Catalog.gc reads the manifest when its pass starts, not when
        the catalog was loaded: a peer's save in between is honored."""
        root = str(tmp_path / "cat")
        corpus = [Table(f"t{i}", {"c": [f"v{i}"]}) for i in range(3)]
        catalog = Catalog.open(root, num_perm=8, bands=4)
        catalog.refresh(corpus)
        catalog.save()

        peer = Catalog.load(root, corpus=corpus + [Table("t9", {"c": ["z"]})])
        peer.save()
        assert catalog.gc() == 0
        assert peer.verify()["problems"] == []


class TestGcReadsTheManifestOnce:
    def test_one_manifest_read_and_one_lock_per_shard(self, tmp_path):
        """gc reads the root manifest once for the whole pass and groups
        its candidates by shard: 400 candidates cost one shard lock per
        shard touched, not one per object."""
        root = str(tmp_path / "cat")
        Catalog(CatalogStore(root)).save()
        builder = CatalogStore(root)
        garbage = [f"{i:08x}" for i in range(400)]
        for fingerprint in garbage:
            write(builder, fingerprint)
        spy = SpyBackend(root)
        catalog = Catalog.load(CatalogStore(root, backend=spy))
        spy.reads.clear()
        spy.calls.clear()
        assert catalog.gc() == 400
        shards = len({shard_of(fp) for fp in garbage})
        assert shards < 400
        assert spy.reads[("read_bytes", "manifest.json")] == 1
        assert spy.calls[("lock", "objects")] == shards
        assert spy.calls[("remove", "objects")] == 400


def _killed_collector(root, survive):
    backend = DyingBackend(root, ".bin", op="remove", survive=survive, exit=True)
    Catalog.load(CatalogStore(root, backend=backend)).gc()


class TestKilledGc:
    @pytest.mark.parametrize("survive", [0, 1, 5])
    def test_gc_killed_mid_pass(self, tmp_path, survive):
        """A gc killed after any number of removals — holding the root
        lock and a shard lock — leaves a store that verifies, with every
        referenced object in place; the kernel drops its locks, so the
        next gc runs at once and finishes the job."""
        root = str(tmp_path / "cat")
        names = [f"t{i}" for i in range(8)]
        catalog = Catalog(CatalogStore(root), num_perm=8, bands=4)
        catalog.refresh(_tables(*names))
        catalog.save()
        catalog.refresh(_tables(*names[:2]))
        catalog.save()  # six unreferenced objects

        run_killed(_killed_collector, (root, survive))
        assert len(CatalogStore(root).list_objects()) == 8 - survive
        # verify() also reads every object the manifest references.
        assert Catalog.load(root).verify()["problems"] == []

        assert Catalog.load(root).gc() == 6 - survive
        assert len(CatalogStore(root).list_objects()) == 2
        assert Catalog.load(root).verify()["problems"] == []


def _doomed_builder(root, fingerprint):
    store = CatalogStore(root)
    write(store, fingerprint)
    os._exit(KILLED_EXIT_CODE)  # dies before any save


class TestCrashedBuilder:
    def test_killed_writers_orphans_are_reclaimed_at_once(self, tmp_path):
        """A builder killed between write and save leaves an object
        nothing references; the very next gc reclaims it."""
        root = str(tmp_path / "cat")
        store = CatalogStore(root)
        write(store, "aaaa0001")

        worker = fork_context().Process(
            target=_doomed_builder, args=(root, "bbbb0002")
        )
        worker.start()
        worker.join()
        assert worker.exitcode == KILLED_EXIT_CODE
        assert store.has_object("bbbb0002")

        assert store.gc(["aaaa0001"]) == 1
        assert not store.has_object("bbbb0002")
        assert store.verify()["problems"] == []


def _peer_drops_b(root):
    """The peer: keeps only ``a``, saves, gc's.  Returns the count."""
    peer = Catalog.load(root, corpus=_tables("a"))
    peer.save()
    return peer.gc()


def _killed_saver(root, point):
    backend = DyingBackend(root, point, exit=True)
    builder = Catalog.load(
        CatalogStore(root, backend=backend), corpus=_tables("a", "b", "c")
    )
    builder.save()


class TestAdoptionRace:
    """Builder adopts ``a`` and ``b`` (already on disk) and writes ``c``;
    a peer drops ``b`` from the manifest and gc's.  Whichever side of
    the builder's save the gc lands on, the save leaves a manifest whose
    every table has its object."""

    def test_gc_before_save_rederives(self, tmp_path):
        root = str(tmp_path / "cat")
        fingerprints = _seed(root, "a", "b")
        builder = Catalog.load(root, corpus=_tables("a", "b", "c"))
        assert builder.computed_columns == 1  # c signed; a, b adopted
        b_object = builder._object_id(fingerprints["b"])

        # b went (adoption wrote nothing), and so did c (written, not
        # yet referenced).
        assert _peer_drops_b(root) == 2
        assert not builder.store.has_object(b_object)

        builder.save()
        assert builder.computed_columns == 3  # b and c re-derived at save
        assert builder.store.has_object(b_object)
        assert _manifest_tables(root) == ["a", "b", "c"]
        assert Catalog.load(root).verify()["problems"] == []

    def test_gc_during_save_waits_and_spares_the_saved(self, tmp_path):
        """The peer loads before the builder saves and runs its drop and
        gc while the save holds the root lock: both wait.  The peer's
        save then drops ``b`` on top of the builder's manifest, and its
        gc reclaims only ``b`` — ``c``, unreferenced when the peer
        loaded, is referenced by the time the pass reads the manifest."""
        root = str(tmp_path / "cat")
        _seed(root, "a", "b")
        held = HeldBackend(root, "snapshot.npz")
        builder = Catalog.load(
            CatalogStore(root, backend=held), corpus=_tables("a", "b", "c")
        )
        c_object = builder._object_id(builder.fingerprints["c"])
        peer = Catalog.load(root, corpus=_tables("a"))
        removed = []

        def drop_b_and_collect():
            peer.save()
            removed.append(peer.gc())

        saving = _start(builder.save)
        assert held.reached.wait(timeout=30)
        dropping = _start(drop_b_and_collect)
        dropping.join(BLOCKED_FOR)
        assert dropping.is_alive()
        held.release.set()
        saving.join(timeout=30)
        dropping.join(timeout=30)

        assert removed == [1]
        assert builder.computed_columns == 1  # nothing re-derived
        assert builder.store.has_object(c_object)
        assert _manifest_tables(root) == ["a", "c"]
        assert Catalog.load(root).verify()["problems"] == []

    @pytest.mark.parametrize("point", ["snapshot.npz", "manifest.json"])
    def test_builder_killed_inside_save_leaves_orphans_for_the_next_gc(
        self, tmp_path, point
    ):
        """Killed holding the root lock, before its snapshot or its
        manifest lands: the kernel releases the lock, the old manifest
        stands, and the peer's gc reclaims the dead builder's
        unreferenced work at once."""
        root = str(tmp_path / "cat")
        _seed(root, "a", "b")
        run_killed(_killed_saver, (root, point))
        assert _manifest_tables(root) == ["a", "b"]

        assert _peer_drops_b(root) == 2  # b and c
        assert _manifest_tables(root) == ["a"]
        peer = Catalog.load(root)
        assert len(peer.store.list_objects()) == 1
        assert peer.verify()["problems"] == []

    def test_builder_killed_while_rederiving_at_save(self, tmp_path):
        """A gc reclaimed ``c`` after the builder wrote it; the builder
        dies rewriting it inside its save.  The old manifest stands and
        verifies, and the next builder's save signs ``c`` afresh."""
        root = str(tmp_path / "cat")
        _seed(root, "a", "b")
        backend = DyingBackend(root, ".bin", survive=1, exit=True)

        def doomed():
            builder = Catalog.load(
                CatalogStore(root, backend=backend), corpus=_tables("a", "b", "c")
            )
            assert Catalog.load(root).gc() == 1  # c, written and unsaved
            builder.save()

        run_killed(doomed)
        assert _manifest_tables(root) == ["a", "b"]
        assert Catalog.load(root).verify()["problems"] == []
        assert Catalog.load(root).gc() == 0

        survivor = Catalog.load(root, corpus=_tables("a", "b", "c"))
        survivor.save()
        assert _manifest_tables(root) == ["a", "b", "c"]
        assert survivor.verify()["problems"] == []
