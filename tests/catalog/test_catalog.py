"""Tests for the Catalog facade: incremental maintenance + persistence."""

import gc
import weakref

import numpy as np
import pytest

from repro import DiscoveryEngine
from repro.catalog import Catalog, CatalogStore, CatalogStoreError
from repro.dataframe.table import Table
from repro.discovery.index import DiscoveryIndex


def make_corpus(n=4, shift=0):
    corpus = {}
    for i in range(n):
        keys = [f"k{j}" for j in range(shift, shift + 20)]
        corpus[f"t{i}"] = Table(
            f"t{i}", {"key": keys, f"v{i}": [float(j) for j in range(20)]}
        )
    return corpus


def probe_table():
    return Table("probe", {"key": [f"k{j}" for j in range(20)]})


def all_joinable(index, table):
    return {
        column: index.joinable(table, column, exclude_table=table.name)
        for column in table.column_names
    }


class TestIncrementalMaintenance:
    def test_add_remove_update_matches_rebuild(self, tmp_path):
        corpus = make_corpus(4)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)

        # Mutate: drop t3, add t4, change t1's content.
        del corpus["t3"]
        corpus["t4"] = Table("t4", {"key": [f"k{j}" for j in range(10)]})
        corpus["t1"] = Table(
            "t1", {"key": [f"k{j}" for j in range(5, 25)], "v1": list(range(20))}
        )
        diff = catalog.refresh(corpus)
        assert diff.removed == ["t3"]
        assert diff.added == ["t4"]
        assert diff.updated == ["t1"]
        assert diff.unchanged == ["t0", "t2"]

        rebuilt = DiscoveryIndex(**catalog.config).build(corpus.values())
        probe = probe_table()
        assert all_joinable(catalog.index, probe) == all_joinable(rebuilt, probe)

    def test_unchanged_tables_not_resigned(self, tmp_path, monkeypatch):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        signed_before = catalog.computed_columns

        def boom(table, column):
            raise AssertionError(
                f"re-signed unchanged column {table.name}.{column}"
            )

        monkeypatch.setattr(catalog.index, "compute_column_entry", boom)
        diff = catalog.refresh(dict(corpus))
        assert diff.unchanged == sorted(corpus)
        assert catalog.computed_columns == signed_before

    def test_update_requires_known_table(self):
        catalog = Catalog()
        with pytest.raises(KeyError):
            catalog.update(Table("ghost", {"x": [1]}))

    def test_update_detects_staleness(self):
        catalog = Catalog()
        table = Table("t", {"x": [1, 2]})
        catalog.add(table)
        assert not catalog.is_stale(table)
        assert catalog.update(table) is False
        changed = Table("t", {"x": [1, 3]})
        assert catalog.is_stale(changed)
        assert catalog.update(changed) is True
        assert not catalog.is_stale(changed)

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            Catalog().remove("ghost")

    def test_works_without_store(self):
        catalog = Catalog()
        catalog.refresh(make_corpus(2))
        assert len(catalog) == 2
        with pytest.raises(CatalogStoreError):
            catalog.save()


class TestPersistence:
    def test_save_load_roundtrip_joinable(self, tmp_path):
        corpus = make_corpus(4)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()

        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        assert loaded.computed_columns == 0, "load re-signed unchanged tables"
        probe = probe_table()
        assert all_joinable(loaded.index, probe) == all_joinable(
            catalog.index, probe
        )

    def test_load_reports_unchanged_not_added(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        loaded = Catalog.load(str(tmp_path / "c"))
        diff = loaded.refresh(corpus)
        assert diff.unchanged == sorted(corpus)
        assert not diff.changed

    def test_load_resigns_only_stale_tables(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()

        corpus["t1"] = Table("t1", {"key": ["zzz"], "v1": [9.0]})
        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        assert loaded.computed_columns == 2  # only t1's two columns
        rebuilt = DiscoveryIndex(**catalog.config).build(corpus.values())
        probe = probe_table()
        assert all_joinable(loaded.index, probe) == all_joinable(rebuilt, probe)

    def test_objects_not_reused_across_configs(self, tmp_path):
        # Crash-before-save scenario: objects written under seed=1 exist
        # but no manifest guards them.  A seed=0 catalog over the same
        # store must re-sign, not silently adopt seed=1 signatures.
        corpus = make_corpus(3)
        first = Catalog(CatalogStore(str(tmp_path / "c")), seed=1)
        first.refresh(corpus)  # objects persisted eagerly; no save()

        second = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        second.refresh(corpus)
        assert second.loaded_columns == 0
        assert second.computed_columns == 6
        clean = DiscoveryIndex(**second.config).build(corpus.values())
        probe = probe_table()
        assert all_joinable(second.index, probe) == all_joinable(clean, probe)

    def test_readd_after_filtered_refresh_uses_snapshot(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        loaded = Catalog.load(str(tmp_path / "c"))
        partial = {n: t for n, t in corpus.items() if n != "t1"}
        loaded.refresh(partial)
        diff = loaded.refresh(corpus)  # t1 comes back, identical content
        assert diff.added == ["t1"]
        assert loaded.computed_columns == 0
        # Re-added via the packed snapshot, not eager per-column objects.
        from repro.discovery.index import ColumnRef

        assert ColumnRef("t1", "key") not in loaded.index._entries

    def test_refresh_rejects_duplicate_table_names(self):
        catalog = Catalog()
        clash = [
            Table("x", {"a": [1, 2]}),
            Table("x", {"b": [3, 4]}),
        ]
        with pytest.raises(ValueError, match="duplicate table name"):
            catalog.refresh(clash)

    def test_refresh_keys_by_table_name_not_dict_key(self, tmp_path):
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        aliased = {"weird_alias": corpus["t0"], "t1": corpus["t1"]}
        first = catalog.refresh(aliased)
        assert first.added == ["t0", "t1"]
        # Same aliased dict again must converge, not churn remove/re-add.
        second = catalog.refresh(aliased)
        assert not second.changed
        assert second.unchanged == ["t0", "t1"]

    def test_remove_then_refresh_reports_no_spurious_diff(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        catalog.remove("t2")
        smaller = {n: t for n, t in corpus.items() if n != "t2"}
        diff = catalog.refresh(smaller)
        assert not diff.changed  # the removal already happened
        # And a re-add after explicit removal is reported as an add.
        diff = catalog.refresh(corpus)
        assert diff.added == ["t2"]

    def test_config_mismatch_rejected(self, tmp_path):
        store = CatalogStore(str(tmp_path / "c"))
        catalog = Catalog(store, num_perm=32, bands=8)
        catalog.refresh(make_corpus(1))
        catalog.save()
        with pytest.raises(CatalogStoreError):
            Catalog(CatalogStore(str(tmp_path / "c")), num_perm=64)

    def test_load_adopts_stored_config(self, tmp_path):
        store = CatalogStore(str(tmp_path / "c"))
        catalog = Catalog(store, num_perm=32, bands=8, min_containment=0.4)
        catalog.refresh(make_corpus(1))
        catalog.save()
        loaded = Catalog.load(str(tmp_path / "c"))
        assert loaded.config["num_perm"] == 32
        assert loaded.config["min_containment"] == 0.4

    def test_open_creates_then_loads(self, tmp_path):
        path = str(tmp_path / "c")
        corpus = make_corpus(2)
        first = Catalog.open(path, corpus=corpus, num_perm=32, bands=8)
        first.save()
        again = Catalog.open(path, corpus=corpus)
        assert again.config["num_perm"] == 32
        assert again.computed_columns == 0

    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(CatalogStoreError):
            Catalog.load(str(tmp_path / "missing"))

    def test_save_on_loaded_catalog_preserves_manifest(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        # Load without a corpus, save again: the manifest (and hence a
        # following gc) must keep everything the catalog still references.
        loaded = Catalog.load(str(tmp_path / "c"))
        loaded.save()
        assert loaded.gc() == 0
        manifest = loaded.store.read_manifest()
        assert set(manifest["tables"]) == set(corpus)
        rehydrated = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        assert rehydrated.computed_columns == 0  # snapshot rows survived too
        assert rehydrated.index._entries == {}  # hydrated from snapshot

    def test_update_skips_fingerprint_for_identical_object(self, tmp_path):
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        import repro.catalog.catalog as catalog_module

        extra = dict(corpus)
        extra["t_new"] = Table("t_new", {"key": ["k0"], "v": [1.0]})
        original = catalog_module.table_fingerprint

        def only_new(table):
            assert table.name == "t_new", (
                f"re-fingerprinted unchanged table {table.name}"
            )
            return original(table)

        catalog_module.table_fingerprint = only_new
        try:
            diff = catalog.refresh(extra)
        finally:
            catalog_module.table_fingerprint = original
        assert diff.added == ["t_new"]
        assert diff.unchanged == sorted(corpus)

    def test_gc_on_loaded_catalog_keeps_manifest_objects(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        # Load without a corpus: nothing live in memory, but the manifest
        # still references every object — gc must not reclaim them.
        loaded = Catalog.load(str(tmp_path / "c"))
        assert loaded.gc() == 0
        rehydrated = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        assert rehydrated.computed_columns == 0
        assert rehydrated.index.column_entries("t0")  # objects still readable

    def test_hydration_with_missing_object_recomputes(self, tmp_path):
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        # Snapshot and manifest still cover t1, but its object vanished
        # (external deletion): hydration must not serve signatures it can
        # never back with value sets — it recomputes and re-persists.
        object_id = next(
            o
            for o in catalog.store.list_objects()
            if o.endswith(catalog.fingerprints["t1"])
        )
        catalog.store.delete_object(object_id)
        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        assert loaded.computed_columns == 2
        probe = probe_table()
        assert loaded.index.joinable(probe, "key") == catalog.index.joinable(
            probe, "key"
        )
        assert any(
            o.endswith(loaded.fingerprints["t1"])
            for o in loaded.store.list_objects()
        )

    def test_stale_snapshot_not_served(self, tmp_path):
        # Crash window: manifest records new content but the snapshot
        # still holds the old content's signatures.  The fast path must
        # reject the mismatched rows and re-derive from the object store.
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        old_snapshot = open(catalog.store.snapshot_path, "rb").read()

        corpus["t1"] = Table("t1", {"key": ["brand_new"], "v1": [1.0]})
        catalog.refresh(corpus)
        catalog.save()
        # Simulate the crash: snapshot write lost, manifest survived.
        open(catalog.store.snapshot_path, "wb").write(old_snapshot)

        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        rebuilt = DiscoveryIndex(**catalog.config).build(corpus.values())
        probe = Table("probe", {"key": ["brand_new"]})
        assert all_joinable(loaded.index, probe) == all_joinable(rebuilt, probe)

    def test_refresh_identity_fast_path(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        import repro.catalog.catalog as catalog_module

        def boom(_table):
            raise AssertionError("re-fingerprinted an identical corpus")

        original = catalog_module.table_fingerprint
        catalog_module.table_fingerprint = boom
        try:
            diff = catalog.refresh(corpus)
        finally:
            catalog_module.table_fingerprint = original
        assert diff.unchanged == sorted(corpus)
        assert not diff.changed

    def test_gc_respects_on_disk_manifest_over_unsaved_removals(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        # In-memory removal that was never saved: gc must not reclaim the
        # object the on-disk manifest still references.
        smaller = {n: t for n, t in corpus.items() if n != "t2"}
        catalog.refresh(smaller)
        assert catalog.gc() == 0
        rehydrated = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        assert rehydrated.computed_columns == 0  # t2's artifacts survived

    def test_gc_drops_orphaned_objects(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        del corpus["t2"]
        catalog.refresh(corpus)
        assert catalog.gc() == 1
        assert len(catalog.store.list_objects()) == 2

    def test_stats_shape(self, tmp_path):
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(make_corpus(2))
        catalog.save()
        stats = catalog.stats()
        assert stats["tables"] == 2
        assert stats["indexed_columns"] == 4
        assert stats["store"]["objects"] == 2


class TestLazyHydration:
    def test_snapshot_hydration_defers_object_reads(self, tmp_path):
        corpus = make_corpus(3)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()

        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        # Hydrated from the snapshot: no per-column entries in memory yet.
        assert loaded.index._entries == {}
        # A query pages entries in and returns correct containment.
        probe = probe_table()
        results = loaded.index.joinable(probe, "key")
        assert results == catalog.index.joinable(probe, "key")
        assert len(loaded.index._entries) > 0

    def test_eager_add_heals_corrupt_object(self, tmp_path):
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        # Corrupt an object; drop the snapshot so load takes the eager
        # object-read path.
        import os

        object_id = catalog.store.list_objects()[0]
        with open(catalog.store._object_path(object_id), "w") as handle:
            handle.write("{broken")
        os.remove(catalog.store.snapshot_path)

        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)  # no crash
        assert loaded.computed_columns == 2  # the corrupt table re-signed
        probe = probe_table()
        assert loaded.index.joinable(probe, "key") == catalog.index.joinable(
            probe, "key"
        )
        # The damaged file was overwritten, so the next load is clean.
        again = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        assert again.computed_columns == 0

    def test_lazy_load_self_heals_after_concurrent_gc(self, tmp_path):
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        # Another process gc'd the object between hydration and first use.
        for object_id in loaded.store.list_objects():
            loaded.store.delete_object(object_id)
        probe = probe_table()
        results = loaded.index.joinable(probe, "key")  # must not KeyError
        assert results == catalog.index.joinable(probe, "key")
        assert loaded.computed_columns > 0  # re-derived from live tables
        assert loaded.store.list_objects()  # and re-persisted

    def test_object_lacking_a_paged_column_is_rederived(self, tmp_path):
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        object_id = loaded._object_id(loaded.fingerprints["t0"])
        meta, entries = loaded.store.read_object(object_id)
        del entries["key"]
        loaded.store.write_object(object_id, meta, entries, overwrite=True)

        assert loaded.index.column_entries("t0") == catalog.index.column_entries("t0")
        assert loaded.computed_columns == 2  # the whole table, once
        _meta, healed = loaded.store.read_object(object_id, ["key"])
        assert healed == {"key": catalog.index.column_entries("t0")["key"]}

    def test_column_entries_forces_load(self, tmp_path):
        corpus = make_corpus(2)
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        loaded = Catalog.load(str(tmp_path / "c"), corpus=corpus)
        entries = loaded.index.column_entries("t0")
        assert set(entries) == {"key", "v0"}
        assert entries == catalog.index.column_entries("t0")
        for column, entry in entries.items():
            assert np.array_equal(
                entry.signature, catalog.index.column_entries("t0")[column].signature
            )


@pytest.fixture
def no_cyclic_gc():
    """Reference counting alone must free what a test drops."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestTeardown:
    """The index pages entries through its catalog, and the catalog owns
    the index: held strongly both ways that is a cycle owning every
    corpus Table, freed only by a generation-2 collection.  The loader
    holds the catalog weakly, so dropping a catalog frees it at once."""

    def test_catalog_and_tables_die_by_refcount(self, tmp_path, no_cyclic_gc):
        corpus = list(make_corpus(4).values())
        catalog = Catalog(CatalogStore(str(tmp_path / "c")), seed=0)
        catalog.refresh(corpus)
        catalog.save()
        table_ref = weakref.ref(corpus[0])
        index_ref = weakref.ref(catalog.index)
        del catalog, corpus
        assert table_ref() is None
        assert index_ref() is None

    def test_engine_dies_by_refcount(self, tmp_path, no_cyclic_gc):
        root = str(tmp_path / "c")
        Catalog.open(root, corpus=make_corpus(4), seed=0).save()
        corpus = list(make_corpus(4).values())
        engine = DiscoveryEngine.open(root, create=False).attach_corpus(corpus)
        candidates = engine.prepare(probe_table().with_column("y", [0.0] * 20))
        assert candidates
        table_ref = weakref.ref(corpus[0])
        index_ref = weakref.ref(engine.catalog.index)
        engine.shutdown()
        del engine, corpus, candidates
        assert table_ref() is None
        assert index_ref() is None

    def test_orphaned_index_raises_typed_error(self, tmp_path):
        root = str(tmp_path / "c")
        Catalog.open(root, corpus=make_corpus(3), seed=0).save()
        catalog = Catalog.load(root, corpus=make_corpus(3))  # lazily hydrated
        index = catalog.index
        del catalog
        with pytest.raises(CatalogStoreError, match="catalog .* is gone"):
            index.column_entries("t0")
