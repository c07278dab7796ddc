"""Tests for the semi-synthetic protocol and corpus generation."""

import pytest

from repro.data import (
    corpus_characteristics,
    generate_corpus,
    semisynthetic_scenario,
)
from repro.discovery import DiscoveryIndex, generate_candidates, materialize_candidates
from repro.tasks.base import canonical_column


class TestSemisynthetic:
    @pytest.mark.parametrize(
        "task_type", ["classification", "causality", "what_if", "how_to"]
    )
    def test_truth_lift(self, task_type):
        scenario = semisynthetic_scenario(task_type, seed=0, n_tables=15)
        index = DiscoveryIndex(min_containment=0.3, seed=0).build(
            scenario.corpus.values()
        )
        augs = generate_candidates(scenario.base, index, max_hops=1)
        candidates = materialize_candidates(scenario.base, augs, scenario.corpus)
        table = scenario.base
        for c in candidates:
            if canonical_column(c.aug_id) in scenario.truth_columns:
                table = c.aug.apply(table, scenario.base, scenario.corpus)
        assert scenario.task.utility(table) > scenario.task.utility(scenario.base)

    def test_donor_count(self):
        scenario = semisynthetic_scenario("classification", seed=1, n_donors=5)
        assert len(scenario.truth_columns) == 5

    def test_invalid_task_type(self):
        with pytest.raises(ValueError):
            semisynthetic_scenario("ranking")

    def test_donors_exceed_tables(self):
        with pytest.raises(ValueError):
            semisynthetic_scenario("classification", n_tables=3, n_donors=5)

    def test_different_seeds_differ(self):
        a = semisynthetic_scenario("classification", seed=0)
        b = semisynthetic_scenario("classification", seed=1)
        assert a.truth_columns != b.truth_columns or a.base != b.base


class TestCorpus:
    def test_open_data_style(self):
        corpus = generate_corpus(20, style="open_data", seed=0)
        assert len(corpus) == 20
        assert all(t.num_rows > 0 for t in corpus)

    def test_kaggle_style_wider(self):
        open_data = generate_corpus(15, style="open_data", seed=0)
        kaggle = generate_corpus(15, style="kaggle", seed=0)
        avg = lambda ts: sum(t.num_columns for t in ts) / len(ts)
        assert avg(kaggle) > avg(open_data)

    @pytest.mark.parametrize("n_tables", [0, -1, 2.0, True])
    def test_table_count_must_be_a_positive_int(self, n_tables):
        with pytest.raises(ValueError, match="n_tables must be an int >= 1"):
            generate_corpus(n_tables)

    def test_invalid_style(self):
        with pytest.raises(ValueError):
            generate_corpus(5, style="excel")

    def test_characteristics_reports_all_fields(self):
        corpus = generate_corpus(10, seed=0)
        index = DiscoveryIndex(min_containment=0.3, seed=0).build(corpus)
        stats = corpus_characteristics(corpus, index)
        assert stats["tables"] == 10
        assert stats["columns"] > 10
        assert stats["size_bytes"] > 0
        assert stats["joinable_columns"] >= 0

    def test_characteristics_without_index(self):
        corpus = generate_corpus(5, seed=0)
        stats = corpus_characteristics(corpus)
        assert stats["joinable_columns"] == 0

    def test_joinable_structure_exists(self):
        corpus = generate_corpus(30, n_key_pools=3, seed=0)
        index = DiscoveryIndex(min_containment=0.2, seed=0).build(corpus)
        stats = corpus_characteristics(corpus, index)
        assert stats["joinable_columns"] > 0

    def test_size_sampling_matches_exact_count(self):
        corpus = generate_corpus(10, seed=0)
        exact = corpus_characteristics(corpus, size_sample=10**9)["size_bytes"]
        sampled = corpus_characteristics(corpus, size_sample=50)["size_bytes"]
        assert exact > 0
        # Evenly-spaced sampling over homogeneous synthetic columns stays
        # within a few percent of the exact cell-by-cell count.
        assert abs(sampled - exact) / exact < 0.05

    def test_size_sampling_deterministic(self):
        corpus = generate_corpus(8, seed=0)
        a = corpus_characteristics(corpus, size_sample=30)["size_bytes"]
        b = corpus_characteristics(corpus, size_sample=30)["size_bytes"]
        assert a == b

    def test_size_sample_zero_means_exact(self):
        corpus = generate_corpus(5, seed=0)
        exact = corpus_characteristics(corpus, size_sample=10**9)["size_bytes"]
        assert corpus_characteristics(corpus, size_sample=0)["size_bytes"] == exact
