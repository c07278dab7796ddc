"""Tests for materialization, candidate profiling, and union search."""

import numpy as np
import pytest

from repro.dataframe import Table
from repro.discovery import (
    Augmentation,
    DiscoveryIndex,
    JoinPath,
    JoinStep,
    UnionAugmentation,
    find_union_candidates,
    generate_candidates,
    materialize_candidates,
    profile_candidates,
)
from repro.profiles import default_registry


@pytest.fixture
def corpus():
    zips = [str(i) for i in range(10)]
    crime = Table("crime", {"zipcode": zips, "crimes": [float(i) for i in range(10)]})
    lookup = Table("lookup", {"zipcode": zips, "city": [f"c{i}" for i in range(10)]})
    weather = Table(
        "weather", {"city": [f"c{i}" for i in range(10)], "rain": [i * 1.5 for i in range(10)]}
    )
    return {"crime": crime, "lookup": lookup, "weather": weather}


@pytest.fixture
def base():
    return Table("base", {"zip": [str(i) for i in range(10)], "y": list(range(10))})


class TestMaterialize:
    def test_single_hop_values(self, base, corpus):
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        aug = Augmentation(path, "crimes")
        values = aug.materialize(base, corpus)
        assert values == [float(i) for i in range(10)]

    def test_two_hop_values(self, base, corpus):
        path = JoinPath(
            (
                JoinStep("zip", "lookup", "zipcode"),
                JoinStep("city", "weather", "city"),
            )
        )
        aug = Augmentation(path, "rain")
        values = aug.materialize(base, corpus)
        assert values == [i * 1.5 for i in range(10)]

    def test_unmatched_rows_are_missing(self, corpus):
        base = Table("base", {"zip": ["0", "1", "999"]})
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        values = Augmentation(path, "crimes").materialize(base, corpus)
        assert values[2] is None

    def test_overlap_fraction(self, corpus):
        base = Table("base", {"zip": ["0", "1", "999", "998"]})
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        assert Augmentation(path, "crimes").overlap_fraction(base, corpus) == 0.5

    def test_missing_base_column_raises(self, base, corpus):
        path = JoinPath((JoinStep("nope", "crime", "zipcode"),))
        with pytest.raises(KeyError):
            Augmentation(path, "crimes").materialize(base, corpus)

    def test_missing_corpus_table_raises(self, base):
        path = JoinPath((JoinStep("zip", "ghost", "zipcode"),))
        with pytest.raises(KeyError):
            Augmentation(path, "x").materialize(base, {})

    def test_apply_adds_column(self, base, corpus):
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        aug = Augmentation(path, "crimes")
        out = aug.apply(base, base, corpus)
        assert aug.aug_id in out
        assert out.num_rows == base.num_rows

    def test_apply_idempotent(self, base, corpus):
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        aug = Augmentation(path, "crimes")
        out = aug.apply(aug.apply(base, base, corpus), base, corpus)
        assert out.column_names.count(aug.aug_id) == 1

    def test_apply_requires_alignment(self, base, corpus):
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        aug = Augmentation(path, "crimes")
        with pytest.raises(ValueError, match="alignment"):
            aug.apply(base.select_rows(range(3)), base, corpus)

    def test_materialize_cached(self, base, corpus):
        path = JoinPath((JoinStep("zip", "crime", "zipcode"),))
        aug = Augmentation(path, "crimes")
        assert aug.materialize(base, corpus) is aug.materialize(base, corpus)


class TestGenerateCandidates:
    def test_pipeline(self, base, corpus):
        index = DiscoveryIndex(min_containment=0.5, seed=0).build(corpus.values())
        augs = generate_candidates(base, index, max_hops=2)
        assert augs  # non-empty
        candidates = materialize_candidates(base, augs, corpus)
        assert all(c.overlap > 0 for c in candidates)
        profiled = profile_candidates(
            candidates, base, corpus, default_registry(), seed=0
        )
        for c in profiled:
            assert c.profile_vector.shape == (5,)
            assert np.all(c.profile_vector >= 0) and np.all(c.profile_vector <= 1)

    def test_max_candidates_cap(self, base, corpus):
        index = DiscoveryIndex(min_containment=0.5, seed=0).build(corpus.values())
        augs = generate_candidates(base, index, max_hops=2, max_candidates=2)
        assert len(augs) == 2

    def test_min_overlap_filter(self, corpus):
        base = Table("base", {"zip": ["0", "999", "998", "997"]})
        index = DiscoveryIndex(min_containment=0.1, seed=0).build(corpus.values())
        augs = generate_candidates(base, index, max_hops=1)
        kept = materialize_candidates(base, augs, corpus, min_overlap=0.5)
        assert kept == []


class TestUnions:
    def test_finds_union_compatible(self):
        base = Table("base", {"a": [1], "b": [2]})
        other = Table("other", {"a": [3], "b": [4], "c": [5]})
        corpus = {"base": base, "other": other}
        unions = find_union_candidates(base, corpus)
        assert len(unions) == 1
        assert unions[0].table_name == "other"

    def test_excludes_self(self):
        base = Table("base", {"a": [1]})
        assert find_union_candidates(base, {"base": base}) == []

    def test_threshold(self):
        base = Table("base", {"a": [1], "b": [2]})
        half = Table("half", {"a": [1], "z": [9]})
        corpus = {"half": half}
        assert find_union_candidates(base, corpus, min_shared=0.6) == []
        assert len(find_union_candidates(base, corpus, min_shared=0.5)) == 1

    def test_invalid_threshold(self):
        base = Table("base", {"a": [1]})
        with pytest.raises(ValueError):
            find_union_candidates(base, {}, min_shared=0.0)

    def test_union_apply_appends_rows(self):
        base = Table("base", {"a": [1, 2], "b": [3, 4]})
        other = Table("other", {"a": [9], "c": [7]})
        corpus = {"other": other}
        union = UnionAugmentation("other", 0.5)
        out = union.apply(base, base, corpus)
        assert out.num_rows == 3
        assert out.column("a") == [1, 2, 9]
        assert out.column("b") == [3, 4, None]

    def test_union_materialize_representative(self):
        base = Table("base", {"a": [1, 2, 3]})
        other = Table("other", {"a": [9]})
        union = UnionAugmentation("other", 1.0)
        values = union.materialize(base, {"other": other})
        assert values == [9, None, None]

    def test_union_identity(self):
        assert UnionAugmentation("x", 0.5) == UnionAugmentation("x", 0.9)
        assert UnionAugmentation("x", 0.5) != UnionAugmentation("y", 0.5)
