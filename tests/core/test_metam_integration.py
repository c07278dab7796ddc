"""Integration tests: METAM end-to-end on synthetic scenarios."""

import pytest

from repro import DiscoveryEngine, DiscoveryRequest, MetamConfig
from repro.core.metam import Metam
from repro.data import clustering_scenario, housing_scenario, sat_howto_scenario
from repro.tasks.base import canonical_column


def warm_engine(scenario):
    """``(scenario, engine)`` with the seed-0 candidate set prepared, so
    every ``discover`` and ``prepare`` below is served from it."""
    engine = DiscoveryEngine(corpus=scenario.corpus)
    engine.prepare(scenario.base)
    return scenario, engine


def metam(scenario, engine, **config):
    """``discover()`` with the METAM searcher; epsilon 0.1 and seed 0
    unless ``config`` says otherwise."""
    config = MetamConfig(**{"epsilon": 0.1, "seed": 0, **config})
    request = DiscoveryRequest(
        base=scenario.base, task=scenario.task, searcher="metam", config=config
    )
    return engine.discover(request).result


@pytest.fixture(scope="module")
def housing():
    return warm_engine(
        housing_scenario(seed=0, n_irrelevant=8, n_erroneous=4, n_traps=3)
    )


@pytest.fixture(scope="module")
def howto():
    return warm_engine(sat_howto_scenario(seed=0, n_irrelevant=6, n_erroneous=3))


class TestMetamEndToEnd:
    def test_improves_utility(self, housing):
        result = metam(*housing, theta=0.75, query_budget=120)
        assert result.utility > result.base_utility + 0.1
        assert result.queries <= 120

    def test_reaches_theta_on_causal(self, howto):
        result = metam(*howto, theta=1.0, query_budget=200)
        assert result.utility == 1.0
        selected = {canonical_column(s) for s in result.selected}
        assert selected <= howto[0].truth_columns | {"scholarship_offer"}

    def test_solution_is_minimal_on_causal(self, howto):
        result = metam(*howto, theta=1.0, query_budget=200)
        # All three causes are needed for utility 1.0; minimality keeps 3.
        assert len(result.selected) == 3

    def test_trace_monotone_nondecreasing(self, housing):
        result = metam(*housing, theta=1.0, query_budget=60)
        values = [v for _, v in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:], strict=False))

    def test_budget_respected(self, housing):
        result = metam(*housing, theta=1.0, query_budget=15)
        assert result.queries <= 15

    def test_deterministic_given_seed(self, howto):
        a = metam(*howto, theta=1.0, query_budget=100, seed=3)
        b = metam(*howto, theta=1.0, query_budget=100, seed=3)
        assert a.selected == b.selected
        assert a.queries == b.queries

    def test_empty_candidates_rejected(self, housing):
        scenario, _ = housing
        with pytest.raises(ValueError):
            Metam([], scenario.base, scenario.corpus, scenario.task)

    def test_unprofiled_candidates_rejected(self, housing):
        scenario, engine = housing
        candidates = engine.prepare(scenario.base)
        stripped = [type(c)(aug=c.aug, values=c.values, overlap=c.overlap) for c in candidates]
        with pytest.raises(ValueError, match="profile"):
            Metam(stripped, scenario.base, scenario.corpus, scenario.task)

    def test_extras_reported(self, housing):
        result = metam(*housing, theta=0.7, query_budget=60)
        assert result.extras["n_clusters"] >= 1
        assert len(result.extras["profile_weights"]) == 5

    def test_active_homogeneity_mode_runs(self, howto):
        result = metam(*howto, theta=1.0, query_budget=250, homogeneity="active")
        assert result.utility >= 0.6

    def test_variants_run(self, howto):
        from repro.api import default_searchers

        scenario, engine = howto
        candidates = engine.prepare(scenario.base)
        config = MetamConfig(theta=1.0, query_budget=150, epsilon=0.1, seed=0)
        for name, thompson, clustering in (
            ("eq", False, True),
            ("nc", True, False),
            ("nceq", False, False),
        ):
            searcher = default_searchers().create(
                name,
                candidates,
                scenario.base,
                scenario.corpus,
                scenario.task,
                config=config,
            )
            # The ablation's switches land on a copy: the caller's
            # config is never the searcher's.
            assert searcher.config is not config
            assert searcher.config.use_thompson is thompson
            assert searcher.config.use_clustering is clustering
            result = searcher.run()
            assert result.utility >= result.base_utility
        assert config.use_thompson and config.use_clustering

    def test_unknown_variant(self, howto):
        from repro.api import RegistryError, default_searchers

        scenario, engine = howto
        candidates = engine.prepare(scenario.base)
        with pytest.raises(RegistryError, match="unknown searcher 'fast'"):
            default_searchers().create(
                "fast", candidates, scenario.base, scenario.corpus, scenario.task
            )


class TestMetamClusteringScenario:
    def test_eight_candidate_scenario_fast(self):
        result = metam(
            *warm_engine(clustering_scenario(seed=0)), theta=0.6, query_budget=30
        )
        assert result.utility >= 0.6
        selected = {canonical_column(s) for s in result.selected}
        assert "oni_score" in selected
