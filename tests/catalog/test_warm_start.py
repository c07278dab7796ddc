"""Warm-start equivalence: catalog-served discovery == cold build —
and a warm start on an unchanged corpus only *reads* the store."""

import collections
import json
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


class SpyBackend(LocalFSBackend):
    """The local backend, counting every mutating primitive by the store
    section (first path component under the root) it lands in, and
    recording every object file read.  A guard that counts calls instead
    of reading a clock."""

    def __init__(self, root):
        super().__init__(root)
        self.spy_root = str(root)
        self.calls = collections.Counter()
        self.lease_writes = []
        self.object_reads = []

    def read_bytes(self, path):
        if path.endswith(".bin"):
            self.object_reads.append(os.path.basename(path))
        return super().read_bytes(path)

    def _note(self, op, path):
        section = os.path.relpath(path, self.spy_root).split(os.sep, 1)[0]
        self.calls[(op, section)] += 1

    def write_bytes(self, path, data):
        self._note("write_bytes", path)
        if os.path.basename(path).startswith("writer-"):
            self.lease_writes.append(json.loads(data))
        return super().write_bytes(path, data)

    def append_bytes(self, path, data):
        self._note("append_bytes", path)
        return super().append_bytes(path, data)

    def write_stream(self, path):
        self._note("write_stream", path)
        return super().write_stream(path)

    def remove(self, path):
        self._note("remove", path)
        return super().remove(path)

    def lock(self, path):
        self._note("lock", path)
        return super().lock(path)

    def in_section(self, section):
        return {op: n for (op, where), n in self.calls.items() if where == section}


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

    def test_load_writes_nothing_under_objects_or_leases(self, tmp_path):
        _warm, spy = self.warm_start(tmp_path, 20)
        assert spy.in_section("objects") == {}
        assert spy.in_section("leases") == {}
        # Only the builder's released-lease leftovers: no lease file.
        assert sorted(os.listdir(os.path.join(spy.spy_root, "leases"))) == [
            ".lock", ".seq",
        ]

    def test_mutation_count_does_not_grow_with_the_store(self, tmp_path):
        """At the parent of this guard every unchanged table cost ≥ 4
        mutating calls (lock, log append, manifest rewrite, log remove)."""
        _warm, small = self.warm_start(tmp_path, 20)
        _warm, large = self.warm_start(tmp_path, 80)
        assert sum(large.calls.values()) == sum(small.calls.values())

    def test_save_claims_every_adopted_object_in_one_lease_write(self, tmp_path):
        warm, spy = self.warm_start(tmp_path, 20)
        spy.calls.clear()
        warm.save()
        claiming = [w["claims"] for w in spy.lease_writes if "claims" in w]
        adopted = sorted(
            warm._object_id(fingerprint) for fingerprint in warm.fingerprints.values()
        )
        assert claiming == [adopted]  # one write, all ids, sorted
        # Verification locks shards and writes nothing beneath them; the
        # lease costs a constant few writes, not one per table.
        assert set(spy.in_section("objects")) == {"lock"}
        assert spy.in_section("leases")["write_bytes"] <= 3
        assert sorted(os.listdir(os.path.join(spy.spy_root, "leases"))) == [
            ".lock", ".seq",
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
