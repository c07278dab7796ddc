"""Tests for entity linking and clustering tasks."""

import numpy as np
import pytest

from repro.dataframe import Table
from repro.tasks import ClusteringTask, EntityLinkingTask, KnowledgeBase


@pytest.fixture
def kb():
    kb = KnowledgeBase()
    kb.add_entity("springfield", "springfield_il", {"illinois"})
    kb.add_entity("springfield", "springfield_ma", {"massachusetts"})
    kb.add_entity("chicago", "chicago_il", {"illinois"})
    return kb


class TestKnowledgeBase:
    def test_candidates_case_insensitive(self, kb):
        assert len(kb.candidates("Springfield")) == 2
        assert len(kb.candidates("CHICAGO")) == 1

    def test_unknown_mention(self, kb):
        assert kb.candidates("atlantis") == []


class TestEntityLinkingTask:
    def test_unambiguous_links_without_context(self, kb):
        table = Table(
            "t",
            {"city": ["chicago", "chicago"], "truth": ["chicago_il", "chicago_il"]},
        )
        task = EntityLinkingTask("city", "truth", kb)
        assert task.utility(table) == 1.0

    def test_ambiguous_fails_without_context(self, kb):
        table = Table(
            "t",
            {"city": ["springfield"], "truth": ["springfield_il"]},
        )
        assert EntityLinkingTask("city", "truth", kb).utility(table) == 0.0

    def test_context_column_disambiguates(self, kb):
        table = Table(
            "t",
            {
                "city": ["springfield", "springfield"],
                "state": ["illinois", "massachusetts"],
                "truth": ["springfield_il", "springfield_ma"],
            },
        )
        assert EntityLinkingTask("city", "truth", kb).utility(table) == 1.0

    def test_truth_column_not_used_as_context(self, kb):
        # The truth column must not leak into the linker's context.
        table = Table(
            "t",
            {"city": ["springfield"], "truth": ["springfield_il"]},
        )
        task = EntityLinkingTask("city", "truth", kb)
        assert task.utility(table) == 0.0

    def test_missing_mentions_skipped(self, kb):
        table = Table(
            "t",
            {"city": [None, "chicago"], "truth": [None, "chicago_il"]},
        )
        assert EntityLinkingTask("city", "truth", kb).utility(table) == 0.5

    def test_missing_column_raises(self, kb):
        table = Table("t", {"city": ["chicago"]})
        with pytest.raises(KeyError):
            EntityLinkingTask("city", "truth", kb).utility(table)


class TestClusteringTask:
    def make_table(self, informative: bool, seed=0, n=90):
        rng = np.random.default_rng(seed)
        category = rng.integers(0, 3, size=n)
        satiety = np.array([2.0, 5.0, 8.0])[category] + rng.normal(scale=0.2, size=n)
        feature = (
            np.array([0.0, 4.0, 8.0])[category] + rng.normal(scale=0.15, size=n)
            if informative
            else rng.normal(size=n)
        )
        return Table(
            "t", {"satiety": satiety.tolist(), "feature": feature.tolist()}
        )

    def test_informative_feature_improves_utility(self):
        task = ClusteringTask("satiety", n_clusters=3, seed=0)
        u_good = task.utility(self.make_table(informative=True))
        u_bad = task.utility(self.make_table(informative=False))
        assert u_good > u_bad + 0.2

    def test_constant_score_perfect(self):
        table = Table("t", {"satiety": [5.0] * 30, "f": list(range(30))})
        assert ClusteringTask("satiety", n_clusters=3).utility(table) == 1.0

    def test_too_few_rows_zero(self):
        table = Table("t", {"satiety": [1.0, 2.0], "f": [1, 2]})
        assert ClusteringTask("satiety", n_clusters=3).utility(table) == 0.0

    def test_no_features_zero(self):
        table = Table("t", {"satiety": [1.0, 5.0, 9.0, 2.0]})
        assert ClusteringTask("satiety", n_clusters=3).utility(table) == 0.0

    def test_missing_score_column(self):
        table = Table("t", {"f": [1, 2, 3]})
        with pytest.raises(KeyError):
            ClusteringTask("satiety").utility(table)

    def test_utility_in_unit_interval(self):
        task = ClusteringTask("satiety", n_clusters=3, seed=0)
        for seed in range(3):
            u = task.utility(self.make_table(informative=False, seed=seed))
            assert 0.0 <= u <= 1.0
