"""Concurrency and crash safety of the catalog store.

The store's claim: every file lands whole (temp file + rename) under a
per-shard advisory file lock, so concurrent writers (threads or
processes) cannot drop each other's objects or profile vectors; a
writer killed before its file lands leaves a store that verifies; and a
writer killed inside ``save()``, holding the root lock, blocks no one
after it — the kernel releases a dead process's flocks.

Fault shapes (dying backends, killed subprocesses) come from the shared
harness in ``tests/harness/faults.py``.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.catalog import Catalog, CatalogStore
from repro.dataframe.table import Table
from tests.harness.entries import make_entry, same_shard_fingerprints
from tests.harness.faults import (
    DyingBackend,
    InjectedCrash,
    run_killed,
    run_ok,
)


@pytest.fixture
def store(tmp_path):
    return CatalogStore(str(tmp_path / "cat"))


class TestThreadedWriters:
    def test_threaded_object_writes_one_shard(self, store):
        fingerprints = same_shard_fingerprints(16)
        entries = {fp: {"c": make_entry({fp})} for fp in fingerprints}

        def write(fp):
            # A fresh handle per thread, like independent builders.
            CatalogStore(store.root).write_object(fp, {"name": fp}, entries[fp])

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, fingerprints))

        # No writer dropped another's object.
        assert store.list_objects() == sorted(fingerprints)
        report = store.verify()
        assert report["problems"] == []
        assert report["objects"] == len(fingerprints)

    def test_threads_sharing_one_store_land_every_object(self, store):
        """Eight threads write through *one* store: every object lands
        whole, and — with nothing saved — a peer's gc reclaims all of
        them in one pass."""
        fingerprints = [f"{i:04x}{i:04x}" for i in range(64)]

        def write(fp):
            store.write_object(fp, {"name": fp}, {"c": make_entry({fp})})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(write, fingerprints, timeout=60))
        finally:
            sys.setswitchinterval(interval)

        assert store.list_objects() == sorted(fingerprints)
        assert store.verify()["problems"] == []
        assert CatalogStore(store.root).gc([]) == len(fingerprints)
        assert store.list_objects() == []

    def test_threaded_profile_writes_merge(self, store):
        base = "basefp"

        def write(i):
            CatalogStore(store.root).write_profiles(
                base, {f"key{i}": np.arange(3, dtype=float) + i}
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(12)))

        loaded = store.read_profiles(base)
        # Merging writes: every concurrent flush survives.
        assert set(loaded) == {f"key{i}" for i in range(12)}
        assert store.verify()["problems"] == []

    def test_write_profiles_replace_mode(self, store):
        store.write_profiles("b", {"old": np.zeros(2)})
        store.write_profiles("b", {"new": np.ones(2)}, merge=False)
        assert set(store.read_profiles("b")) == {"new"}


class TestThreadedTransitions:
    """Threads of one process take the root lock like processes do: its
    in-process layer serializes saves and gc passes across threads."""

    def test_threads_saving_disjoint_slices_merge(self, tmp_path):
        root = str(tmp_path / "cat")
        Catalog.open(root, num_perm=8, bands=4).save()

        def build(prefix):
            catalog = Catalog.load(root)
            for table in _slice_tables([f"{prefix}{i}" for i in range(4)]):
                catalog.add(table)
                catalog.save()

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(build, "abcd", timeout=60))
        manifest = CatalogStore(root).read_manifest()
        assert set(manifest["tables"]) == {f"{p}{i}" for p in "abcd" for i in range(4)}
        assert Catalog.load(root).verify()["problems"] == []

    def test_threads_interleaving_saves_and_gc(self, tmp_path):
        """Two builder threads add and save table by table while a third
        loops gc: a gc may reclaim a builder's object between its write
        and its save, and the save re-derives it, so every table ends up
        referenced with its object, and one more gc finds no garbage."""
        root = str(tmp_path / "cat")
        Catalog.open(root, num_perm=8, bands=4).save()
        done = []

        def build(prefix):
            catalog = Catalog.load(root)
            for table in _slice_tables([f"{prefix}{i}" for i in range(6)]):
                catalog.add(table)
                catalog.save()
            done.append(prefix)

        def collect():
            while len(done) < 2:
                Catalog.load(root).gc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(collect)] + [
                    pool.submit(build, prefix) for prefix in "ab"
                ]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        catalog = Catalog.load(root)
        assert set(catalog.store.read_manifest()["tables"]) == {
            f"{p}{i}" for p in "ab" for i in range(6)
        }
        assert catalog.verify()["problems"] == []
        assert catalog.gc() == 0


def _object_writer(root, fingerprints):
    store = CatalogStore(root)
    for fp in fingerprints:
        store.write_object(fp, {"name": fp}, {"c": make_entry({fp})})
        store.write_profiles(fp, {"k": np.full(4, 1.0)})


def _catalog_builder(root, tables):
    """Add one slice and save.  Added, not refreshed: a refresh against
    the slice would remove whatever the other process saved before this
    one opened the store."""
    catalog = Catalog.open(root, num_perm=8, bands=4)
    for name, values in tables.items():
        catalog.add(Table(name, {"c": values}))
    catalog.save()


def _slice_tables(names):
    return [Table(name, {"c": [f"{name}-{i}" for i in range(3)]}) for name in names]


def _adopting_builder(root, names):
    """Adopt whatever of ``names`` is already on disk (referenced or
    not), sign the rest, save.  Tables are added, not refreshed against
    a partial corpus: a refresh would remove whatever the other process
    saved before this one loaded."""
    catalog = Catalog.load(root)
    for table in _slice_tables(names + ["keep"]):
        catalog.add(table)
    catalog.save()


def _churning_collector(root, rounds):
    """Add a table, save, remove it, save, gc — over and over.  Every gc
    sees the builders' not-yet-referenced objects as candidates."""
    for i in range(rounds):
        catalog = Catalog.load(root)
        catalog.add(_slice_tables([f"churn{i}"])[0])
        catalog.save()
        catalog.remove(f"churn{i}")
        catalog.save()
        catalog.gc()


class TestProcessWriters:
    def test_multiprocess_store_writers(self, store):
        fingerprints = same_shard_fingerprints(24)
        chunks = [fingerprints[i::4] for i in range(4)]
        run_ok([(_object_writer, (store.root, chunk)) for chunk in chunks])

        assert store.list_objects() == sorted(fingerprints)
        report = store.verify()
        assert report["problems"] == []
        for fp in fingerprints:
            _meta, entries = store.read_object(fp)
            assert entries["c"].distinct == frozenset({fp})
            assert set(store.read_profiles(fp)) == {"k"}

    def test_multiprocess_catalog_builds_merge(self, tmp_path):
        """Two processes index disjoint corpus slices into one store;
        both saves survive (union manifest), and the catalog verifies."""
        root = str(tmp_path / "cat")
        slices = [
            {f"a{i}": [f"v{i}", f"w{i}"] for i in range(5)},
            {f"b{i}": [f"x{i}", f"y{i}"] for i in range(5)},
        ]
        # Create the store first so both builders adopt one config
        # instead of racing the creation itself.
        Catalog.open(root, num_perm=8, bands=4).save()
        run_ok([(_catalog_builder, (root, tables)) for tables in slices])

        manifest = CatalogStore(root).read_manifest()
        expected = {name for tables in slices for name in tables}
        assert set(manifest["tables"]) == expected
        catalog = Catalog.load(root)
        report = catalog.verify()
        assert report["problems"] == []
        assert report["tables"] == len(expected)

    def test_adopting_builders_race_a_collector(self, tmp_path):
        """Two builders adopt overlapping, currently unreferenced objects
        while a third process loops add → save → remove → save → gc.
        Whichever side of each builder's save a gc pass lands on (object
        reclaimed first and re-derived at save, or referenced first and
        spared), every builder's table ends up in the manifest with its
        object."""
        root = str(tmp_path / "cat")
        shared = [f"s{i}" for i in range(6)]
        seeded = Catalog.open(root, num_perm=8, bands=4)
        seeded.refresh(_slice_tables(shared + ["keep"]))
        seeded.save()
        # Un-reference the shared tables without collecting them: their
        # objects stay on disk as garbage any gc may take.
        seeded.refresh(_slice_tables(["keep"]))
        seeded.save()

        run_ok(
            [
                (_adopting_builder, (root, shared[:4] + ["a0", "a1"])),
                (_adopting_builder, (root, shared[2:] + ["b0", "b1"])),
                (_churning_collector, (root, 6)),
            ]
        )
        manifest = CatalogStore(root).read_manifest()
        assert set(manifest["tables"]) == {*shared, "keep", "a0", "a1", "b0", "b1"}
        catalog = Catalog.load(root)
        assert catalog.verify()["problems"] == []

    def test_peer_removal_not_resurrected(self, tmp_path):
        """A writer that merely carries a table forward must honor a
        peer's removal of it — resurrecting the name would leave the
        manifest pointing at a gc'd object."""
        root = str(tmp_path / "cat")
        t1 = Table("t1", {"c": ["a", "b"]})
        t2 = Table("t2", {"c": ["x", "y"]})
        seeded = Catalog.open(root, num_perm=8, bands=4)
        seeded.refresh([t1, t2])
        seeded.save()

        writer_a = Catalog.load(root)
        writer_b = Catalog.load(root)  # both carry t1+t2 from the save
        writer_a.refresh([t1])  # drops t2
        writer_a.save()
        writer_a.gc()  # t2's object reclaimed
        writer_b.save()  # stale carrier: must not bring t2's name back

        manifest = CatalogStore(root).read_manifest()
        assert set(manifest["tables"]) == {"t1"}
        assert Catalog.load(root).verify()["problems"] == []


def _killed_writer(root, fingerprint):
    store = CatalogStore(root, backend=DyingBackend(root, ".bin", exit=True))
    store.write_object(fingerprint, {"name": fingerprint}, {"c": make_entry({"v"})})


def _killed_saver(root, names):
    """Adds ``names`` and dies as the save writes the manifest —
    holding the root lock."""
    backend = DyingBackend(root, "manifest.json", exit=True)
    catalog = Catalog.load(CatalogStore(root, backend=backend))
    for table in _slice_tables(names):
        catalog.add(table)
    catalog.save()


class TestCrashSafety:
    def test_writer_dies_before_its_file_lands(self, store):
        """The writer dies as its object is about to land: nothing is
        half-written, the store verifies, and the next writer of the
        fingerprint lands it whole."""
        first, second = same_shard_fingerprints(2)
        dying = CatalogStore(store.root, backend=DyingBackend(store.root, ".bin"))
        with pytest.raises(InjectedCrash):
            dying.write_object(first, {"name": first}, {"c": make_entry({"v"})})
        assert not store.has_object(first)
        assert store.verify()["problems"] == []

        for fingerprint in (first, second):
            store.write_object(
                fingerprint, {"name": fingerprint}, {"c": make_entry({"w"})}
            )
        assert store.list_objects() == sorted([first, second])
        assert store.verify()["problems"] == []

    def test_killed_writer_process_leaves_consistent_shard(self, store):
        """Same scenario with a real process kill (os._exit) holding the
        shard lock, so nothing after it — no finally blocks, no
        interpreter teardown — runs in the writer.  The lock dies with
        the process: the next writer of the shard does not wait."""
        first, second = same_shard_fingerprints(2)
        run_killed(_killed_writer, (store.root, first))

        assert not store.has_object(first)
        assert store.verify()["problems"] == []

        store.write_object(second, {"name": second}, {"c": make_entry({"w"})})
        store.write_object(first, {"name": first}, {"c": make_entry({"v"})})
        assert store.read_object(first)[0] == {"name": first}
        assert store.list_objects() == sorted([first, second])
        assert store.verify()["problems"] == []

    def test_saver_killed_holding_the_root_lock(self, tmp_path):
        """A saver killed as its manifest is about to land, inside the
        root lock: the old manifest stands and verifies, the next save
        and gc take the lock at once, and the gc reclaims the dead
        saver's unreferenced objects."""
        root = str(tmp_path / "cat")
        seeded = Catalog.open(root, num_perm=8, bands=4)
        seeded.refresh(_slice_tables(["keep"]))
        seeded.save()
        run_killed(_killed_saver, (root, ["d0", "d1"]))

        assert set(CatalogStore(root).read_manifest()["tables"]) == {"keep"}
        assert Catalog.load(root).verify()["problems"] == []
        survivor = Catalog.load(root)
        survivor.add(_slice_tables(["s0"])[0])
        survivor.save()
        assert survivor.gc() == 2  # d0 and d1
        assert set(CatalogStore(root).read_manifest()["tables"]) == {"keep", "s0"}
        assert survivor.verify()["problems"] == []
