"""Tests for the discovery index, join graph, and path enumeration."""

import gc

import pytest

from repro.dataframe import Table
from repro.discovery import (
    Augmentation,
    ColumnRef,
    DiscoveryIndex,
    JoinPath,
    JoinStep,
    build_join_graph,
    enumerate_join_paths,
)


@pytest.fixture
def corpus():
    zips = [str(60601 + i) for i in range(30)]
    houses = Table("houses", {"zip": zips, "price": list(range(30))})
    crime = Table(
        "crime",
        {"zipcode": zips, "crimes": [i * 2.0 for i in range(30)]},
    )
    # weather joins to crime via city, not to houses directly (2-hop).
    cities = [f"city{i}" for i in range(30)]
    crime2 = Table(
        "crime_city",
        {"zipcode": zips, "city": cities},
    )
    weather = Table(
        "weather",
        {"city_name": cities, "rainfall": [float(i) for i in range(30)]},
    )
    unrelated = Table("penguins", {"species": ["adelie", "gentoo"], "mass": [1, 2]})
    return {
        t.name: t for t in (houses, crime, crime2, weather, unrelated)
    }


@pytest.fixture
def index(corpus):
    idx = DiscoveryIndex(min_containment=0.5, seed=0)
    for name, table in corpus.items():
        if name != "houses":
            idx.add_table(table)
    return idx


class TestDiscoveryIndex:
    def test_finds_joinable_column(self, corpus, index):
        results = index.joinable(corpus["houses"], "zip")
        refs = {str(r) for r, _ in results}
        assert "crime.zipcode" in refs

    def test_does_not_find_unrelated(self, corpus, index):
        results = index.joinable(corpus["houses"], "zip")
        refs = {r.table for r, _ in results}
        assert "penguins" not in refs

    def test_containment_score_is_one_for_full_match(self, corpus, index):
        results = dict(
            (str(r), s) for r, s in index.joinable(corpus["houses"], "zip")
        )
        assert results["crime.zipcode"] == pytest.approx(1.0)

    def test_exclude_table(self, corpus, index):
        results = index.joinable(corpus["crime"], "zipcode", exclude_table="crime_city")
        assert all(r.table != "crime_city" for r, _ in results)

    def test_duplicate_table_rejected(self, corpus, index):
        with pytest.raises(ValueError):
            index.add_table(corpus["crime"])

    def test_empty_column_returns_nothing(self, index):
        empty = Table("e", {"k": [None, None]})
        assert index.joinable(empty, "k") == []

    def test_joinable_columns_cross_tables(self, index):
        found = {str(ref) for ref in index.joinable_columns()}
        assert {
            "crime.zipcode", "crime_city.zipcode",
            "crime_city.city", "weather.city_name",
        } <= found  # fmt: skip
        assert not any(ref.startswith("penguins.") for ref in found)

    def test_num_indexed_columns(self, index):
        assert index.num_indexed_columns == 8  # crime(2) + crime_city(2) + weather(2) + penguins(2)


class TestJoinGraph:
    def test_graph_has_edge_between_joinable(self, index):
        graph = build_join_graph(index)
        a = ColumnRef("crime", "zipcode")
        b = ColumnRef("crime_city", "zipcode")
        assert graph.has_edge(a, b)

    def test_all_columns_are_nodes(self, index):
        graph = build_join_graph(index)
        assert graph.number_of_nodes() == 8


class TestEnumeratePaths:
    def test_single_hop_paths(self, corpus, index):
        paths = enumerate_join_paths(corpus["houses"], index, max_hops=1)
        finals = {p.final_table for p in paths}
        assert "crime" in finals
        assert all(p.length == 1 for p in paths)

    def test_two_hop_reaches_weather(self, corpus, index):
        paths = enumerate_join_paths(corpus["houses"], index, max_hops=2)
        finals = {p.final_table for p in paths}
        assert "weather" in finals

    def test_no_cycles_back_to_visited(self, corpus, index):
        paths = enumerate_join_paths(corpus["houses"], index, max_hops=2)
        for path in paths:
            tables = [s.right_table for s in path.steps]
            assert len(tables) == len(set(tables))

    def test_invalid_hops(self, corpus, index):
        with pytest.raises(ValueError):
            enumerate_join_paths(corpus["houses"], index, max_hops=0)


class TestJoinPathTypes:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            JoinPath(())

    def test_str_representation(self):
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        assert "crime.zipcode" in str(path)

    def test_augmentation_identity(self):
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        a = Augmentation(path, "crimes")
        b = Augmentation(path, "crimes")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Augmentation(path, "other")


class TestMaterializeCache:
    """``Augmentation`` caches a materialised column per live base table:
    same-content base objects each get their own entry, and an entry
    goes when its base dies."""

    @pytest.fixture
    def aug(self):
        return Augmentation(JoinPath((JoinStep("zip", "crime", "zipcode"),)), "crimes")

    def test_growth_is_bounded_by_live_bases(self, corpus, aug):
        expected = aug.materialize(corpus["houses"], corpus)
        kept = []
        for i in range(6):
            base = corpus["houses"].copy()  # fresh object, same content
            assert aug.materialize(base, corpus) == expected
            if i % 2 == 0:
                kept.append(base)
            del base
            assert len(aug._cache) == 1 + len(kept)
        kept.clear()
        assert len(aug._cache) == 1

    def test_a_collected_base_leaves_no_entry(self, corpus, aug):
        base = corpus["houses"].copy()
        # A cycle through the base: only the cyclic collector frees it.
        base.self_ref = base
        aug.materialize(base, corpus)
        assert len(aug._cache) == 1
        del base
        gc.collect()
        assert aug._cache == {}

    def test_a_hit_needs_the_same_right_tables(self, corpus, aug):
        """The cells come from the corpus: the same base over another
        corpus must not get the first corpus's column back."""
        base = corpus["houses"]
        crime = corpus["crime"]
        other = dict(corpus)
        other["crime"] = crime.with_column("crimes", crime.column("crimes")[::-1])
        first = aug.materialize(base, corpus)
        assert aug.materialize(base, other) == first[::-1]
        assert aug.materialize(base, corpus) == first
