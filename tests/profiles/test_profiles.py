"""Tests for the individual data profiles."""

import numpy as np
import pytest

from repro.dataframe import Table
from repro.profiles import (
    CorrelationProfile,
    EmbeddingSimilarityProfile,
    MetadataProfile,
    MutualInformationProfile,
    OverlapProfile,
    ProfileContext,
    RandomProfile,
    TokenEmbedder,
)
from repro.profiles.embedding import cosine_similarity


def make_context(base, values, candidate=None, overlap=1.0, name="aug"):
    return ProfileContext(
        base=base,
        column_name=name,
        column_values=list(values),
        candidate_table=candidate or Table("cand", {"aug": list(values)}),
        overlap_fraction=overlap,
    )


@pytest.fixture
def base():
    rng = np.random.default_rng(0)
    price = rng.normal(100, 20, size=200)
    return Table(
        "houses",
        {
            "zipcode": [str(60600 + i % 10) for i in range(200)],
            "price": price.tolist(),
        },
        source="open-data",
    )


class TestCorrelationProfile:
    def test_correlated_column_high(self, base):
        values = [2.0 * p + 1.0 for p in base.column("price")]
        score = CorrelationProfile().compute(make_context(base, values))
        assert score > 0.95

    def test_independent_column_low(self, base):
        rng = np.random.default_rng(9)
        values = rng.normal(size=200).tolist()
        score = CorrelationProfile().compute(make_context(base, values))
        assert score < 0.35

    def test_all_missing_zero(self, base):
        score = CorrelationProfile().compute(make_context(base, [None] * 200))
        assert score == 0.0

    def test_in_unit_interval(self, base):
        rng = np.random.default_rng(1)
        for _ in range(3):
            score = CorrelationProfile().compute(
                make_context(base, rng.normal(size=200).tolist())
            )
            assert 0.0 <= score <= 1.0


class TestMutualInformationProfile:
    def test_dependent_beats_independent(self, base):
        price = np.array(base.column("price"))
        dependent = (price**2).tolist()
        rng = np.random.default_rng(5)
        independent = rng.normal(size=200).tolist()
        p = MutualInformationProfile()
        assert p.compute(make_context(base, dependent)) > p.compute(
            make_context(base, independent)
        )

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            MutualInformationProfile(bins=1)

    def test_all_missing_zero(self, base):
        assert MutualInformationProfile().compute(
            make_context(base, [None] * 200)
        ) == 0.0


class TestEmbedding:
    def test_token_embedding_deterministic(self):
        e = TokenEmbedder()
        assert np.array_equal(e.embed_token("crime"), e.embed_token("crime"))

    def test_token_embedding_unit_norm(self):
        e = TokenEmbedder()
        assert np.linalg.norm(e.embed_token("taxi")) == pytest.approx(1.0)

    def test_different_tokens_differ(self):
        e = TokenEmbedder()
        assert not np.array_equal(e.embed_token("a"), e.embed_token("b"))

    def test_cached_token_vectors_are_read_only(self):
        e = TokenEmbedder()
        before = e.embed_tokens(["taxi", "trips"])
        with pytest.raises(ValueError):
            e.embed_token("taxi")[:] = 0
        with pytest.raises(ValueError):
            e.embed_token("trips")[0] = 1.0
        assert np.array_equal(e.embed_tokens(["taxi", "trips"]), before)

    def test_empty_tokens_zero_vector(self):
        e = TokenEmbedder(dim=8)
        assert np.array_equal(e.embed_tokens([]), np.zeros(8))

    def test_cosine_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_similar_tables_closer_than_dissimilar(self, base):
        similar = Table(
            "house_prices_extra",
            {"zipcode": ["1"], "price": [1.0], "house": ["x"]},
        )
        dissimilar = Table(
            "penguin_census",
            {"flipper": [1.0], "species": ["adelie"]},
        )
        profile = EmbeddingSimilarityProfile()
        s_sim = profile.compute(make_context(base, [1.0] * 200, candidate=similar))
        s_dis = profile.compute(make_context(base, [1.0] * 200, candidate=dissimilar))
        assert s_sim > s_dis

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            TokenEmbedder(dim=1)


class TestMetadataProfile:
    def test_shared_attributes_raise_score(self, base):
        shared = Table("t1", {"zipcode": [1], "price": [2]}, source="other")
        disjoint = Table("t2", {"foo": [1], "bar": [2]}, source="other")
        p = MetadataProfile()
        assert p.compute(make_context(base, [1.0] * 200, candidate=shared)) > p.compute(
            make_context(base, [1.0] * 200, candidate=disjoint)
        )

    def test_same_source_bonus(self, base):
        same = Table("t", {"foo": [1]}, source="open-data")
        other = Table("t", {"foo": [1]}, source="kaggle")
        p = MetadataProfile()
        s_same = p.compute(make_context(base, [1.0] * 200, candidate=same))
        s_other = p.compute(make_context(base, [1.0] * 200, candidate=other))
        assert s_same == pytest.approx(s_other + 0.25)


class TestOverlapProfile:
    def test_passthrough(self, base):
        assert OverlapProfile().compute(make_context(base, [1.0] * 200, overlap=0.4)) == 0.4

    def test_clipped(self, base):
        assert OverlapProfile().compute(make_context(base, [1.0] * 200, overlap=1.7)) == 1.0


class TestRandomProfile:
    def test_deterministic_per_augmentation(self, base):
        p = RandomProfile(index=0, seed=1)
        ctx = make_context(base, [1.0] * 200, name="x")
        assert p.compute(ctx) == p.compute(ctx)

    def test_varies_across_augmentations(self, base):
        p = RandomProfile(index=0, seed=1)
        a = p.compute(make_context(base, [1.0] * 200, name="x"))
        b = p.compute(make_context(base, [1.0] * 200, name="y"))
        assert a != b

    def test_independent_indices_differ(self, base):
        ctx = make_context(base, [1.0] * 200, name="x")
        assert RandomProfile(0, seed=1).compute(ctx) != RandomProfile(1, seed=1).compute(ctx)
