"""Catalog-backed Table-I corpus reports: disk artifacts == in-memory."""

import pytest

from repro.catalog import Catalog, CatalogStore, CatalogStoreError
from repro.cli import main
from repro.data import corpus_characteristics, generate_corpus
from repro.discovery import DiscoveryIndex

SEED = 0
N_TABLES = 25


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(N_TABLES, style="open_data", seed=SEED)


@pytest.fixture(scope="module")
def reference(corpus):
    index = DiscoveryIndex(min_containment=0.3, seed=SEED).build(corpus)
    return corpus_characteristics(corpus, index)


def build(tmp_path, corpus):
    catalog = Catalog(CatalogStore(str(tmp_path / "cat")), min_containment=0.3,
                      seed=SEED)
    catalog.refresh({t.name: t for t in corpus})
    catalog.save()
    return catalog


class TestCorpusStatsEquality:
    def test_live_catalog_matches_in_memory(self, tmp_path, corpus, reference):
        catalog = build(tmp_path, corpus)
        assert catalog.corpus_stats() == reference

    def test_streamed_matches_in_memory_path(self, tmp_path, corpus, reference):
        # The shard-batched joinable pass (bounded resident entries) must
        # report exactly what the in-memory index reports, at any batch
        # size — including 1 (every cross-table check goes through the
        # LRU) and sizes larger than the catalog (everything resident).
        build(tmp_path, corpus)
        loaded = Catalog.load(str(tmp_path / "cat"))
        for batch_tables in (1, 3, N_TABLES + 10):
            assert loaded.corpus_stats(batch_tables=batch_tables) == reference

    @pytest.mark.parametrize("batch_tables", [0, -1, None])
    def test_streamed_rejects_bad_batch_size(self, tmp_path, corpus, batch_tables):
        # None used to select a hold-everything path; a batch at least
        # as large as the catalog does that now.
        build(tmp_path, corpus)
        loaded = Catalog.load(str(tmp_path / "cat"))
        with pytest.raises(ValueError, match="batch_tables"):
            loaded.corpus_stats(batch_tables=batch_tables)

    def test_store_only_catalog_matches_in_memory(self, tmp_path, corpus, reference):
        build(tmp_path, corpus)
        # Fresh process simulation: no corpus attached at all — the
        # report runs purely from persisted artifacts.
        loaded = Catalog.load(str(tmp_path / "cat"))
        assert len(loaded.index.tables) == 0  # nothing hydrated
        assert loaded.corpus_stats() == reference
        assert loaded.computed_columns == 0  # and nothing re-signed

    def test_corpus_characteristics_routes_through_catalog(
        self, tmp_path, corpus, reference
    ):
        build(tmp_path, corpus)
        loaded = Catalog.load(str(tmp_path / "cat"))
        assert corpus_characteristics(catalog=loaded) == reference

    def test_corpus_characteristics_requires_corpus_or_catalog(self):
        with pytest.raises(ValueError):
            corpus_characteristics()


class TestJoinableCountRouting:
    def test_indexed_name_matches_live_table(self, tmp_path, corpus):
        catalog = build(tmp_path, corpus)
        for table in corpus[:5]:
            assert catalog.joinable_count(table.name) == catalog.joinable_count(
                table
            )

    def test_unknown_name_raises(self, tmp_path, corpus):
        catalog = build(tmp_path, corpus)
        with pytest.raises(KeyError):
            catalog.joinable_count("ghost")


class TestCorpusStatsRobustness:
    def test_requires_store(self):
        catalog = Catalog()
        with pytest.raises(CatalogStoreError):
            catalog.corpus_stats()

    def test_corrupt_object_heals_with_live_table(self, tmp_path, corpus, reference):
        catalog = build(tmp_path, corpus)
        victim = catalog.store.list_objects()[0]
        with open(catalog.store._object_path(victim), "w") as handle:
            handle.write("garbage")
        assert catalog.corpus_stats() == reference  # recomputed + re-persisted
        assert catalog.computed_columns > 0
        # And the healed object now serves a store-only report too.
        loaded = Catalog.load(str(tmp_path / "cat"))
        assert loaded.corpus_stats() == reference

    def test_pre_v2_objects_without_sizes_warn(self, tmp_path, corpus):
        # PR-1 era objects carry no size estimate: the store-only report
        # must say so instead of silently printing a too-small size.
        import warnings

        catalog = build(tmp_path, corpus)
        for fingerprint in catalog.store.list_objects():
            meta, entries = catalog.store.read_object(fingerprint)
            meta.pop("size_bytes", None)
            catalog.store.write_object(fingerprint, meta, entries, overwrite=True)
        loaded = Catalog.load(str(tmp_path / "cat"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = loaded.corpus_stats()
        assert stats["size_bytes"] == 0
        assert any("predate size recording" in str(w.message) for w in caught)

    def test_missing_object_without_live_table_raises(self, tmp_path, corpus):
        catalog = build(tmp_path, corpus)
        loaded = Catalog.load(str(tmp_path / "cat"))
        victim = loaded.store.list_objects()[0]
        loaded.store.delete_object(victim)
        with pytest.raises(CatalogStoreError, match="missing or corrupt"):
            loaded.corpus_stats()


class TestCorpusStatsCli:
    def test_catalog_flag_matches_generated_report(self, tmp_path, capsys):
        root = str(tmp_path / "cat")
        assert main(["catalog", "build", root, "--tables", "15",
                     "--seed", str(SEED)]) == 0
        capsys.readouterr()
        assert main(["corpus-stats", "--tables", "15", "--seed", str(SEED)]) == 0
        from_corpus = capsys.readouterr().out
        assert main(["corpus-stats", "--catalog", root]) == 0
        from_catalog = capsys.readouterr().out
        assert from_catalog == from_corpus

    def test_catalog_flag_streams_by_default_and_matches(self, tmp_path, capsys):
        root = str(tmp_path / "cat")
        assert main(["catalog", "build", root, "--tables", "15",
                     "--seed", str(SEED)]) == 0
        capsys.readouterr()
        assert main(["corpus-stats", "--catalog", root]) == 0
        streamed = capsys.readouterr().out
        assert main(["corpus-stats", "--catalog", root,
                     "--batch-tables", "1000"]) == 0
        one_batch = capsys.readouterr().out
        assert streamed == one_batch

    def test_missing_catalog_errors_cleanly(self, tmp_path, capsys):
        assert main(
            ["corpus-stats", "--catalog", str(tmp_path / "nope")]
        ) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "no catalog manifest" in captured.err
