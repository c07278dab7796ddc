"""Tests for the baseline searchers."""

import pytest

from repro import DiscoveryEngine, DiscoveryRequest
from repro.baselines import (
    IArdaSearcher,
    JoinEverythingSearcher,
    MultiplicativeWeightsSearcher,
    OverlapSearcher,
    UniformSearcher,
    greedy_monotone_search,
)
from repro.core.querying import QueryEngine
from repro.data import housing_scenario, sat_howto_scenario
from repro.tasks.base import canonical_column


@pytest.fixture(scope="module")
def howto():
    scenario = sat_howto_scenario(seed=0, n_irrelevant=6, n_erroneous=3)
    candidates = DiscoveryEngine(corpus=scenario.corpus).prepare(scenario.base)
    return scenario, candidates


@pytest.fixture(scope="module")
def housing():
    scenario = housing_scenario(seed=0, n_irrelevant=8, n_erroneous=4, n_traps=3)
    candidates = DiscoveryEngine(corpus=scenario.corpus).prepare(scenario.base)
    return scenario, candidates


class TestGreedyMonotone:
    def test_improves_and_stops_at_theta(self, howto):
        scenario, candidates = howto
        engine = QueryEngine(
            scenario.task, scenario.base, scenario.corpus, candidates, budget=300
        )
        ranking = sorted(c.aug_id for c in candidates)
        state = greedy_monotone_search(engine, ranking, theta=0.5)
        assert state.utility >= 0.5 or engine.queries == len(ranking) + 1


class TestRankingBaselines:
    @pytest.mark.parametrize("name", ["overlap", "uniform", "mw"])
    def test_baseline_improves(self, howto, name):
        scenario, candidates = howto
        result = DiscoveryEngine(corpus=scenario.corpus).discover(
            DiscoveryRequest(
                base=scenario.base,
                task=scenario.task,
                searcher=name,
                theta=1.0,
                query_budget=250,
                seed=0,
                candidates=candidates,
            )
        ).result
        assert result.utility > result.base_utility
        assert result.searcher == name

    def test_overlap_rank_order(self, howto):
        scenario, candidates = howto
        searcher = OverlapSearcher(
            candidates, scenario.base, scenario.corpus, scenario.task
        )
        ranking = searcher.rank()
        overlaps = {c.aug_id: c.overlap for c in candidates}
        values = [overlaps[a] for a in ranking]
        assert values == sorted(values, reverse=True)

    def test_uniform_deterministic_per_seed(self, howto):
        scenario, candidates = howto
        a = UniformSearcher(
            candidates, scenario.base, scenario.corpus, scenario.task, seed=5
        ).rank()
        b = UniformSearcher(
            candidates, scenario.base, scenario.corpus, scenario.task, seed=5
        ).rank()
        c = UniformSearcher(
            candidates, scenario.base, scenario.corpus, scenario.task, seed=6
        ).rank()
        assert a == b
        assert a != c

    def test_mw_requires_profiles(self, howto):
        scenario, candidates = howto
        stripped = [
            type(c)(aug=c.aug, values=c.values, overlap=c.overlap)
            for c in candidates
        ]
        with pytest.raises(ValueError):
            MultiplicativeWeightsSearcher(
                stripped, scenario.base, scenario.corpus, scenario.task
            )

    def test_mw_expert_weights_reported(self, howto):
        scenario, candidates = howto
        result = MultiplicativeWeightsSearcher(
            candidates,
            scenario.base,
            scenario.corpus,
            scenario.task,
            theta=1.0,
            query_budget=150,
            seed=0,
        ).run()
        weights = result.extras["expert_weights"]
        assert len(weights) == 5
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_empty_candidates_rejected(self, howto):
        scenario, _ = howto
        with pytest.raises(ValueError):
            UniformSearcher([], scenario.base, scenario.corpus, scenario.task)


class TestIArda:
    def test_ranks_truth_high_on_classification(self, housing):
        scenario, candidates = housing
        searcher = IArdaSearcher(
            candidates,
            scenario.base,
            scenario.corpus,
            scenario.task,
            target_column="price_label",
            mode="classification",
            seed=0,
        )
        ranking = searcher.rank()
        top10 = {canonical_column(a) for a in ranking[:10]}
        assert top10 & scenario.truth_columns

    def test_run_improves(self, housing):
        scenario, candidates = housing
        result = IArdaSearcher(
            candidates,
            scenario.base,
            scenario.corpus,
            scenario.task,
            target_column="price_label",
            theta=1.0,
            query_budget=120,
            seed=0,
        ).run()
        assert result.utility > result.base_utility


class TestJoinEverything:
    def test_single_query(self, housing):
        scenario, candidates = housing
        result = JoinEverythingSearcher(
            candidates, scenario.base, scenario.corpus, scenario.task
        ).run()
        assert result.queries == 2  # base + everything
        assert len(result.selected) == len(candidates)
