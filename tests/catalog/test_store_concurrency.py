"""Concurrency and crash safety of the catalog store.

The store's claim: shard manifests follow an append-then-atomic-rename
protocol under per-shard advisory file locks, so concurrent writers
(threads or processes) cannot drop each other's entries, and a writer
killed between the log append and the manifest rename leaves a store
that reads back every completed update.

Fault shapes (crash-at-point, torn log tails, killed subprocesses) come
from the shared harness in ``tests/harness/faults.py``.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.catalog import Catalog, CatalogStore
from repro.catalog import store as store_module
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

        assert store.list_objects() == sorted(fingerprints)
        shard_dir = store._object_shard_dir(fingerprints[0])
        recorded = store._read_shard_section(shard_dir, "objects")
        # The protocol's whole point: no writer dropped another's entry.
        assert set(recorded) == set(fingerprints)
        report = store.verify()
        assert report["problems"] == []
        assert report["objects"] == len(fingerprints)

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
        shard_dir = store._object_shard_dir(fingerprints[0])
        assert set(store._read_shard_section(shard_dir, "objects")) == set(
            fingerprints
        )
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
        Whichever side of each builder's claim a gc pass lands on
        (object reclaimed first and re-derived at save, or claimed first
        and spared), every builder's table ends up in the manifest with
        its object."""
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
        assert catalog.store.leases.active() == []

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


def _crashing_writer(root, fingerprint):
    store = CatalogStore(root)
    store.fault_hook = exit_hook("shard-log-appended")
    store.write_object(fingerprint, {"name": fingerprint}, {"c": make_entry({"v"})})


class TestCrashSafety:
    def test_writer_dies_between_append_and_rename(self, store):
        """The delta reaches the log, the writer dies before the
        manifest rename — the shard must read back consistent (the log
        replays) and the next writer compacts."""
        first, second = same_shard_fingerprints(2)
        shard_dir = store._object_shard_dir(first)

        with crash_at(store, "shard-log-appended"):
            with pytest.raises(InjectedCrash):
                store.write_object(
                    first, {"name": first}, {"c": make_entry({"v"})}
                )

        # The data file landed and the appended-but-uncompacted delta is
        # visible through log replay.
        log_path = store._shard_log_path(shard_dir)
        assert os.path.exists(log_path)
        assert store.has_object(first)
        record = store._read_shard_section(shard_dir, "objects")[first]
        assert store_module._record_codec(record) == 2
        assert store.verify()["problems"] == []

        # The next writer in the shard compacts: log cleared, both
        # entries durable in the base manifest.
        store.write_object(second, {"name": second}, {"c": make_entry({"w"})})
        assert not os.path.exists(log_path)
        assert set(store._read_shard_section(shard_dir, "objects")) == {
            first,
            second,
        }
        assert store.verify()["problems"] == []

    def test_killed_writer_process_leaves_consistent_shard(self, store):
        """Same scenario with a real process kill (os._exit), so nothing
        after the append — no finally blocks, no interpreter teardown —
        runs in the writer."""
        first, second = same_shard_fingerprints(2)
        run_killed(_crashing_writer, (store.root, first))

        shard_dir = store._object_shard_dir(first)
        assert os.path.exists(store._shard_log_path(shard_dir))
        record = store._read_shard_section(shard_dir, "objects")[first]
        assert store_module._record_codec(record) == 2
        assert store.read_object(first)[0] == {"name": first}
        assert store.verify()["problems"] == []

        store.write_object(second, {"name": second}, {"c": make_entry({"w"})})
        assert not os.path.exists(store._shard_log_path(shard_dir))
        assert set(store._read_shard_section(shard_dir, "objects")) == {
            first,
            second,
        }

    def test_torn_log_tail_is_skipped(self, store):
        """A partial last line (writer killed mid-append) must not hide
        the complete records before it."""
        fingerprint = same_shard_fingerprints(1)[0]
        store.write_object(
            fingerprint, {"name": fingerprint}, {"c": make_entry({"v"})}
        )
        shard_dir = store._object_shard_dir(fingerprint)
        torn_log(
            store._shard_log_path(shard_dir),
            [{"section": "objects", "op": "set", "key": "extra", "value": 2}],
            torn_tail='{"section": "objects", "op": "se',  # torn mid-record
        )
        recorded = store._read_shard_section(shard_dir, "objects")
        assert store_module._record_codec(recorded[fingerprint]) == 2
        assert recorded["extra"] == 2  # complete log record applies

    def test_log_delete_record_applies(self, store):
        fingerprint = same_shard_fingerprints(1)[0]
        store.write_object(
            fingerprint, {"name": fingerprint}, {"c": make_entry({"v"})}
        )
        shard_dir = store._object_shard_dir(fingerprint)
        torn_log(
            store._shard_log_path(shard_dir),
            [{"section": "objects", "op": "del", "key": fingerprint}],
        )
        assert fingerprint not in store._read_shard_section(shard_dir, "objects")
