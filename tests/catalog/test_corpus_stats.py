"""Table-I corpus reports: one joinable pass, so disk artifacts == in-memory.

``corpus_characteristics`` over a live index and ``Catalog.corpus_stats``
over stored entries both run ``DiscoveryIndex.joinable_columns``.  The
pass signs and narrows columns through in-process ``str`` hashes, so
this file runs under several ``PYTHONHASHSEED`` values in CI.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, CatalogStore, CatalogStoreError
from repro.cli import main
from repro.data import corpus_characteristics, generate_corpus
from repro.dataframe import Table
from repro.discovery import DiscoveryIndex

SEED = 0
N_TABLES = 25

WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta")
#: Cells whose normalized forms collide across case and padding, beside
#: floats and missing cells: a mixed column takes the string path.
CELLS = tuple(
    cell for word in WORDS for cell in (word, word.upper(), f" {word}", f"{word.title()} ")
) + (0.5, 2.0, None)
#: Cells of a wholly float-or-missing column (narrowed on bit patterns).
FLOATS = (0.5, 1.0, 2.0, 2.5, 1e16, None)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(N_TABLES, style="open_data", seed=SEED)


@pytest.fixture(scope="module")
def reference(corpus):
    index = DiscoveryIndex(min_containment=0.3, seed=SEED).build(corpus)
    return corpus_characteristics(corpus, index)


def build(root, corpus, seed=SEED):
    catalog = Catalog(CatalogStore(str(root)), min_containment=0.3, seed=seed)
    catalog.refresh({t.name: t for t in corpus})
    catalog.save()
    return catalog


@st.composite
def corpora(draw):
    corpus = []
    for t in range(draw(st.integers(2, 6))):
        rows = draw(st.integers(1, 12))
        names = draw(st.lists(st.sampled_from("kvw"), min_size=1, max_size=3, unique=True))
        columns = {}
        for name in names:
            pool = draw(st.sampled_from([CELLS, FLOATS]))
            columns[name] = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
        corpus.append(Table(f"t{t}", columns))
    return corpus


class TestOneJoinablePass:
    @settings(max_examples=60, deadline=None)
    @given(corpus=corpora(), seed=st.integers(0, 3))
    def test_live_and_stored_reports_agree(self, corpus, seed):
        """Values that are not already normalized used to split the
        in-memory count (normalized query signatures) from the stored one
        (raw signatures)."""
        index = DiscoveryIndex(min_containment=0.3, seed=seed).build(corpus)
        in_memory = corpus_characteristics(corpus, index)
        with tempfile.TemporaryDirectory() as root:
            live = build(root, corpus, seed).corpus_stats()
            stored = Catalog.load(root).corpus_stats()
        assert in_memory == live == stored

    def test_catalog_index_counts_what_a_fresh_index_counts(self, tmp_path, corpus):
        fresh = DiscoveryIndex(min_containment=0.3, seed=SEED).build(corpus)
        expected = fresh.joinable_columns()
        assert expected
        assert build(tmp_path / "cat", corpus).index.joinable_columns() == expected

    def test_warm_index_pages_entries_in(self, tmp_path, corpus):
        """A warm start holds signatures only: the pass pages every
        entry in through the catalog's loader and re-signs nothing."""
        fresh = DiscoveryIndex(min_containment=0.3, seed=SEED).build(corpus)
        build(tmp_path / "cat", corpus)
        warm = Catalog.load(str(tmp_path / "cat"), corpus={t.name: t for t in corpus})
        assert not warm.index._entries
        assert warm.index.joinable_columns() == fresh.joinable_columns()
        assert warm.computed_columns == 0


class TestCorpusStatsEquality:
    def test_live_catalog_matches_in_memory(self, tmp_path, corpus, reference):
        assert build(tmp_path / "cat", corpus).corpus_stats() == reference

    def test_store_only_catalog_matches_in_memory(self, tmp_path, corpus, reference):
        build(tmp_path / "cat", corpus)
        # Fresh process simulation: no corpus attached at all — the
        # report runs purely from persisted artifacts.
        loaded = Catalog.load(str(tmp_path / "cat"))
        assert len(loaded.index.tables) == 0  # nothing hydrated
        assert loaded.corpus_stats() == reference
        assert loaded.computed_columns == 0  # and nothing re-signed

    def test_removed_parameters_are_refused(self, tmp_path, corpus):
        loaded = build(tmp_path / "cat", corpus)
        for option in ("batch_tables", "size_sample"):
            with pytest.raises(TypeError, match=option):
                loaded.corpus_stats(**{option: 1})
        with pytest.raises(TypeError, match="catalog"):
            corpus_characteristics(corpus, catalog=loaded)

    def test_corpus_characteristics_requires_a_corpus(self):
        with pytest.raises(TypeError):
            corpus_characteristics()


class TestCorpusStatsRobustness:
    def test_requires_store(self):
        catalog = Catalog()
        with pytest.raises(CatalogStoreError):
            catalog.corpus_stats()

    def test_corrupt_object_heals_with_live_table(self, tmp_path, corpus, reference):
        catalog = build(tmp_path / "cat", corpus)
        victim = catalog.store.list_objects()[0]
        with open(catalog.store._object_path(victim), "w") as handle:
            handle.write("garbage")
        assert catalog.corpus_stats() == reference  # recomputed + re-persisted
        assert catalog.computed_columns > 0
        # And the healed object now serves a store-only report too.
        loaded = Catalog.load(str(tmp_path / "cat"))
        assert loaded.corpus_stats() == reference

    @staticmethod
    def strip_sizes(store):
        for fingerprint in store.list_objects():
            meta, entries = store.read_object(fingerprint)
            del meta["size_bytes"]
            store.write_object(fingerprint, meta, entries, overwrite=True)

    def test_meta_without_size_heals_from_live_table(self, tmp_path, corpus, reference):
        # Every object of this layout is written with its size, so a
        # meta without one is a corrupt object.
        catalog = build(tmp_path / "cat", corpus)
        self.strip_sizes(catalog.store)
        signed = catalog.computed_columns
        assert catalog.corpus_stats() == reference
        assert catalog.computed_columns == 2 * signed
        assert Catalog.load(str(tmp_path / "cat")).corpus_stats() == reference

    def test_meta_without_size_raises_without_live_table(self, tmp_path, corpus):
        build(tmp_path / "cat", corpus)
        loaded = Catalog.load(str(tmp_path / "cat"))
        self.strip_sizes(loaded.store)
        with pytest.raises(CatalogStoreError, match="missing or corrupt"):
            loaded.corpus_stats()

    def test_missing_object_without_live_table_raises(self, tmp_path, corpus):
        build(tmp_path / "cat", corpus)
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

    def test_missing_catalog_errors_cleanly(self, tmp_path, capsys):
        assert main(
            ["corpus-stats", "--catalog", str(tmp_path / "nope")]
        ) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "no catalog manifest" in captured.err
