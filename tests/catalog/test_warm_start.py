"""Warm-start equivalence: catalog-served discovery == cold build —
and a warm start on an unchanged corpus only *reads* the store."""

import os

import numpy as np
import pytest

from repro import CandidateSpec, DiscoveryEngine
from repro.catalog import Catalog, CatalogStore, LocalFSBackend
from repro.data import housing_scenario
from repro.dataframe.table import Table
from repro.discovery import ColumnRef, MinHasher, generate_candidates
from repro.kernels import normalize_strings
from repro.profiles.registry import default_registry
from tests.harness.spy import SpyBackend


@pytest.fixture(scope="module")
def scenario():
    return housing_scenario(seed=0)


def build_catalog(tmp_path, scenario):
    catalog = Catalog(CatalogStore(str(tmp_path / "cat")), min_containment=0.3, seed=0)
    catalog.refresh(scenario.corpus)
    catalog.save()
    return catalog


class TestWarmStartEquivalence:
    def test_candidates_and_profiles_identical(self, tmp_path, scenario):
        cold = DiscoveryEngine(corpus=scenario.corpus).prepare(scenario.base)
        build_catalog(tmp_path, scenario)

        warm_catalog = Catalog.load(str(tmp_path / "cat"), corpus=scenario.corpus)
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=warm_catalog)
        warm = engine.prepare(scenario.base)
        assert warm_catalog.computed_columns == 0
        assert [c.aug_id for c in warm] == [c.aug_id for c in cold]
        assert [c.overlap for c in warm] == [c.overlap for c in cold]
        for cold_c, warm_c in zip(cold, warm, strict=True):
            assert np.array_equal(cold_c.profile_vector, warm_c.profile_vector)

    def test_second_run_hits_profile_cache(self, tmp_path, scenario):
        catalog = build_catalog(tmp_path, scenario)
        registry = default_registry()
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=catalog)
        engine.prepare(scenario.base, registry=registry)
        warm_catalog = Catalog.load(str(tmp_path / "cat"), corpus=scenario.corpus)
        cache = warm_catalog.profile_cache(scenario.base, registry, seed=0)
        assert len(cache) > 0
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=warm_catalog)
        warm = engine.prepare(scenario.base, registry=registry)
        assert len(warm) == len(cache)

    def test_stale_table_triggers_reprofile(self, tmp_path, scenario):
        catalog = build_catalog(tmp_path, scenario)
        registry = default_registry()
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=catalog)
        candidates = engine.prepare(scenario.base, registry=registry)
        touched = candidates[0].aug.final_table

        # Perturb one repository table's content.
        corpus = dict(scenario.corpus)
        changed = corpus[touched].copy()
        changed.column(changed.column_names[-1])[0] = 123456.789
        corpus[touched] = changed

        warm_catalog = Catalog.load(str(tmp_path / "cat"), corpus=corpus)
        cache = warm_catalog.profile_cache(scenario.base, registry, seed=0)
        hits_before = cache.hits
        for candidate in candidates:
            vector = cache.get(candidate)
            if candidate.aug.final_table == touched:
                assert vector is None, "stale table served a cached profile"
        assert cache.misses > 0
        assert cache.hits >= hits_before

    def test_warm_mode_persists_manifest_without_explicit_save(
        self, tmp_path, scenario
    ):
        catalog = Catalog(
            CatalogStore(str(tmp_path / "auto")), min_containment=0.3, seed=0
        )
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=catalog)
        engine.prepare(scenario.base)  # no catalog.save()
        loaded = Catalog.load(str(tmp_path / "auto"))
        diff = loaded.refresh(scenario.corpus)
        assert not diff.changed  # manifest/snapshot were saved automatically

    def test_implicit_save_rederives_what_a_peer_gc_reclaimed(
        self, tmp_path, scenario
    ):
        """A warm engine signs the one table its catalog lacks; a peer's
        gc reclaims that object right after it lands (nothing references
        it yet), and the engine's implicit save signs it again before the
        manifest names it.  The engine takes no lock of its own."""
        root = str(tmp_path / "cat")
        full = dict(scenario.corpus)
        missing = sorted(full)[-1]
        seeded = Catalog(CatalogStore(root), min_containment=0.3, seed=0)
        seeded.refresh([t for name, t in full.items() if name != missing])
        seeded.save()

        class GcAfterFirstObject(LocalFSBackend):
            collected = []

            def write_bytes(self, path, data):
                super().write_bytes(path, data)
                if path.endswith(".bin") and not self.collected:
                    self.collected.append(Catalog.load(root).gc())

        warm = Catalog.load(CatalogStore(root, backend=GcAfterFirstObject(root)))
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=warm)
        try:
            got = engine.prepare(scenario.base)
        finally:
            engine.shutdown()
        columns = len(full[missing].column_names)
        assert GcAfterFirstObject.collected == [1]
        assert warm.computed_columns == 2 * columns  # signed, then re-signed
        assert sorted(CatalogStore(root).read_manifest()["tables"]) == sorted(full)
        assert Catalog.load(root).verify()["problems"] == []
        cold = DiscoveryEngine(corpus=scenario.corpus).prepare(scenario.base)
        assert [c.aug_id for c in got] == [c.aug_id for c in cold]

    def test_partial_corpus_does_not_shrink_saved_catalog(self, tmp_path, scenario):
        catalog = build_catalog(tmp_path, scenario)
        full = dict(scenario.corpus)
        dropped = sorted(full)[0]
        partial = {n: t for n, t in full.items() if n != dropped}
        # Warm discovery over a filtered corpus must not persist removals.
        warm_catalog = Catalog.load(str(tmp_path / "cat"))
        DiscoveryEngine(corpus=partial, catalog=warm_catalog).prepare(scenario.base)
        manifest = warm_catalog.store.read_manifest()
        assert dropped in manifest["tables"]
        # Not even via a later additive run in the same process.
        grown = dict(partial)
        grown["brand_new"] = scenario.base.copy(name="brand_new")
        DiscoveryEngine(corpus=grown, catalog=warm_catalog).prepare(scenario.base)
        manifest = warm_catalog.store.read_manifest()
        assert dropped in manifest["tables"]
        assert "brand_new" not in manifest["tables"]  # save was withheld
        # An explicit save persists the caller's intent, removals included.
        warm_catalog.save()
        manifest = warm_catalog.store.read_manifest()
        assert dropped not in manifest["tables"]
        assert "brand_new" in manifest["tables"]

    def test_open_warns_on_ignored_config(self, tmp_path, scenario):
        import warnings

        path = str(tmp_path / "cfg")
        Catalog.open(path, corpus=scenario.corpus, num_perm=32, bands=8).save()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = Catalog.open(path, num_perm=64)
        assert reopened.config["num_perm"] == 32
        assert any("stored config" in str(w.message) for w in caught)

    def test_containment_mismatch_warns(self, tmp_path, scenario):
        import warnings

        catalog = build_catalog(tmp_path, scenario)  # min_containment=0.3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = DiscoveryEngine(corpus=scenario.corpus, catalog=catalog)
            engine.prepare(scenario.base, spec=CandidateSpec(min_containment=0.6))
        assert any("min_containment" in str(w.message) for w in caught)

    def test_registry_hyperparameters_invalidate_cache(self, tmp_path, scenario):
        catalog = build_catalog(tmp_path, scenario)
        seeded_a = default_registry().with_random_profiles(2, seed=0)
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=catalog)
        candidates = engine.prepare(scenario.base, registry=seeded_a)
        # Same profile *names*, different hyperparameters: the cache must
        # miss, not serve the other registry's vectors.
        seeded_b = default_registry().with_random_profiles(2, seed=123)
        cache = catalog.profile_cache(scenario.base, seeded_b, seed=0)
        assert all(cache.get(c) is None for c in candidates)
        # While the identical registry config hits.
        same = default_registry().with_random_profiles(2, seed=0)
        cache = catalog.profile_cache(scenario.base, same, seed=0)
        assert all(cache.get(c) is not None for c in candidates)

    def test_changed_base_table_misses_cache(self, tmp_path, scenario):
        catalog = build_catalog(tmp_path, scenario)
        registry = default_registry()
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=catalog)
        candidates = engine.prepare(scenario.base, registry=registry)
        other_base = scenario.base.with_column(
            "extra", [0.0] * scenario.base.num_rows
        )
        cache = catalog.profile_cache(other_base, registry, seed=0)
        assert all(cache.get(c) is None for c in candidates)


def _portal(n_tables):
    return [
        Table(
            f"t{i:03d}",
            {"k": [f"key{j}" for j in range(6)], "x": [f"{i}:{j}" for j in range(6)]},
        )
        for i in range(n_tables)
    ]


class TestWarmStartOnlyReads:
    def warm_start(self, tmp_path, n_tables):
        root = str(tmp_path / f"cat{n_tables}")
        catalog = Catalog(CatalogStore(root), num_perm=8, bands=4)
        catalog.refresh(_portal(n_tables))
        catalog.save()
        spy = SpyBackend(root)
        warm = Catalog.load(CatalogStore(root, backend=spy), corpus=_portal(n_tables))
        assert warm.computed_columns == 0
        assert warm.loaded_columns == 2 * n_tables
        return warm, spy

    def test_load_writes_nothing(self, tmp_path):
        """A load on an unchanged corpus mutates no file anywhere under
        the root: no object, no lock taken, no bookkeeping."""
        _warm, spy = self.warm_start(tmp_path, 20)
        assert spy.calls == {}
        assert sorted(os.listdir(spy.spy_root)) == [
            ".lock", "manifest.json", "objects", "snapshot.npz",
        ]

    def test_mutation_count_does_not_grow_with_the_store(self, tmp_path):
        """At the parent of this guard every unchanged table cost ≥ 4
        mutating calls (lock, log append, manifest rewrite, log remove)."""
        _warm, small = self.warm_start(tmp_path, 20)
        _warm, large = self.warm_start(tmp_path, 80)
        assert sum(large.calls.values()) == sum(small.calls.values())

    def test_save_after_a_warm_start_checks_no_adopted_object(self, tmp_path):
        """Every adopted object is one the on-disk manifest already
        references, so the save probes none of them and touches nothing
        under ``objects/``: one root lock, the snapshot and the manifest."""
        warm, spy = self.warm_start(tmp_path, 20)
        spy.calls.clear()
        spy.reads.clear()
        warm.save()
        assert spy.in_section("objects") == {}
        assert spy.reads[("exists", "objects")] == 0
        assert spy.calls == {
            ("lock", ".lock"): 1,
            ("write_stream", "snapshot.npz"): 1,
            ("write_bytes", "manifest.json"): 1,
        }

    def test_prepare_on_a_cached_profile_group_only_reads(self, tmp_path, scenario):
        """A warm ``prepare`` whose profile group is cached opens no file
        for writing and removes none: its LRU touch is an mtime update."""
        root = str(tmp_path / "cat")
        catalog = build_catalog(tmp_path, scenario)
        DiscoveryEngine(corpus=scenario.corpus, catalog=catalog).prepare(scenario.base)
        assert len(CatalogStore(root).list_profile_groups()) == 1
        spy = SpyBackend(root)
        warm = Catalog.load(CatalogStore(root, backend=spy), corpus=scenario.corpus)
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=warm)
        try:
            assert engine.prepare(scenario.base)
        finally:
            engine.shutdown()
        assert warm.computed_columns == 0
        assert spy.in_section("objects") == {}
        assert spy.in_section("profiles") == {"touch": 1}

    def test_no_bookkeeping_files_after_build_warm_start_and_gc(
        self, tmp_path, scenario
    ):
        """Objects, profile groups, the snapshot and the manifest are
        the whole store: no shard manifest, delta log, fencing counter
        or write-claim file is ever left."""
        root = str(tmp_path / "cat")
        catalog = build_catalog(tmp_path, scenario)
        DiscoveryEngine(corpus=scenario.corpus, catalog=catalog).prepare(scenario.base)
        tables = list(scenario.corpus.values())
        warm = Catalog.load(root, corpus=tables)
        engine = DiscoveryEngine(corpus=tables, catalog=warm)
        try:
            assert engine.prepare(scenario.base)
        finally:
            engine.shutdown()
        warm.refresh(tables[1:])
        warm.save()
        assert warm.gc() == 1
        files = [
            os.path.relpath(os.path.join(dirpath, name), root)
            for dirpath, _dirnames, names in os.walk(root)
            for name in names
        ]
        assert [f for f in files if "manifest" in f] == ["manifest.json"]
        assert not [f for f in files if f.endswith((".seq", ".json.tmp"))]
        assert sorted(os.listdir(root)) == [
            ".lock", "manifest.json", "objects", "profiles", "snapshot.npz",
        ]

    def test_objects_read_are_the_tables_a_base_column_collided_with(self, tmp_path):
        """Per-column paging: a warm start reads one object per table an
        LSH probe of a base column landed on, and pages in only the
        colliding columns — never whole tables."""
        pool = [f"key{j:03d}" for j in range(40)]
        tables = [
            Table(
                f"t{i:03d}",
                {
                    # Half the tables share the base's key pool; the rest
                    # draw keys nobody else has.
                    "k": pool[i : i + 20] if i % 2 else [f"own{i}-{j}" for j in range(20)],
                    "x": [f"{i}:{j}" for j in range(20)],
                },
            )
            for i in range(16)
        ]
        root = str(tmp_path / "cat")
        catalog = Catalog(CatalogStore(root), num_perm=16, bands=8, min_containment=0.3)
        catalog.refresh(tables)
        catalog.save()
        spy = SpyBackend(root)
        warm = Catalog.load(CatalogStore(root, backend=spy), corpus=tables)
        assert spy.object_reads == [] and warm.index._entries == {}

        base = Table("base", {"k": pool, "y": [f"base{j}" for j in range(40)]})
        candidates = generate_candidates(base, warm.index, max_hops=1)
        assert candidates

        config = warm.config
        hasher = MinHasher(num_perm=config["num_perm"], seed=config["seed"])
        bands = config["bands"]

        def collides(a, b):
            return bool((a.reshape(bands, -1) == b.reshape(bands, -1)).all(axis=1).any())

        probes = [
            hasher.signature(normalize_strings(base.distinct_values(c)))
            for c in base.column_names
        ]
        collided = {
            ColumnRef(table.name, column)
            for table in tables
            for column in table.column_names
            if any(
                collides(probe, warm.index.signature_of(ColumnRef(table.name, column)))
                for probe in probes
            )
        }
        assert 0 < len({ref.table for ref in collided}) < len(tables)
        assert set(warm.index._entries) == collided
        assert len(spy.object_reads) == len({ref.table for ref in collided})
        assert len(set(spy.object_reads)) == len(spy.object_reads)


def _reader_corpus(n=5):
    return [
        Table(f"t{i}", {"k": [f"v{j}" for j in range(8)], "x": [f"{i}-{j}" for j in range(8)]})
        for i in range(n)
    ]


def _object_files(root):
    """Every file under ``objects/`` with its bytes and mtime."""
    files = {}
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "objects")):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                files[path] = (handle.read(), os.stat(path).st_mtime_ns)
    return files


class TestReaderLeavesNothingBehind:
    """A process that only reads (load + refresh of an unchanged corpus,
    never a save) rewrites no object and leaves nothing that could keep
    a peer's gc off its garbage: the peer reclaims a dropped table's
    object on its first pass."""

    @pytest.fixture
    def root(self, tmp_path):
        root = str(tmp_path / "cat")
        catalog = Catalog(CatalogStore(root), num_perm=8, bands=4)
        catalog.refresh(_reader_corpus())
        catalog.save()
        return root

    def check_peer_reclaims_first_pass(self, root):
        peer = Catalog.load(root, corpus=_reader_corpus()[1:])  # drops t0
        peer.save()
        assert peer.gc() == 1
        assert peer.verify()["problems"] == []

    def test_catalog_load_on_unchanged_corpus(self, root):
        before = _object_files(root)
        listing = sorted(os.listdir(root))
        reader = Catalog.load(root, corpus=_reader_corpus())
        assert reader.computed_columns == 0
        assert _object_files(root) == before
        assert sorted(os.listdir(root)) == listing
        self.check_peer_reclaims_first_pass(root)

    def test_engine_prepare_on_unchanged_corpus(self, root):
        before = _object_files(root)
        listing = sorted(os.listdir(root))
        base = Table("base", {"k": [f"v{j}" for j in range(8)], "y": list(range(8))})
        engine = DiscoveryEngine.open(root, create=False).attach_corpus(_reader_corpus())
        try:
            assert engine.prepare(base)
        finally:
            engine.shutdown()
        assert _object_files(root) == before
        assert set(os.listdir(root)) - set(listing) <= {"profiles"}
        self.check_peer_reclaims_first_pass(root)
