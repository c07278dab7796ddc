"""Tests for the end-to-end pipeline: engine prepare + baseline dispatch."""

import pytest

from repro.api import CandidateSpec, DiscoveryEngine, DiscoveryRequest
from repro.data import clustering_scenario, unions_scenario
from repro.profiles.extensions import extended_registry


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def prepare(scenario, spec=None, registry=None, seed=0):
    """One cold prepare on a fresh engine (nothing cached between calls)."""
    engine = DiscoveryEngine(corpus=scenario.corpus)
    return engine.prepare(scenario.base, spec=spec, registry=registry, seed=seed)


class TestPrepare:
    def test_default_registry_vectors(self, scenario):
        candidates = prepare(scenario)
        assert candidates
        assert all(c.profile_vector.shape == (5,) for c in candidates)

    def test_custom_registry(self, scenario):
        registry = extended_registry()
        candidates = prepare(scenario, registry=registry)
        assert all(
            c.profile_vector.shape == (len(registry),) for c in candidates
        )

    def test_unions_included_when_requested(self):
        scenario = unions_scenario(seed=0)
        with_unions = prepare(
            scenario, CandidateSpec(include_unions=True, min_union_shared=0.9)
        )
        union_ids = [c for c in with_unions if c.aug_id.startswith("union:")]
        assert union_ids
        without = prepare(scenario)
        assert not [c for c in without if c.aug_id.startswith("union:")]

    def test_deterministic(self, scenario):
        a = prepare(scenario, seed=3)
        b = prepare(scenario, seed=3)
        assert [c.aug_id for c in a] == [c.aug_id for c in b]

    def test_min_containment_filters(self, scenario):
        strict = prepare(scenario, CandidateSpec(min_containment=0.99))
        loose = prepare(scenario, CandidateSpec(min_containment=0.1))
        assert len(strict) <= len(loose)


class TestBaselineDispatch:
    def test_join_everything(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        result = engine.discover(
            DiscoveryRequest(
                base=scenario.base, task=scenario.task, searcher="join_everything"
            )
        ).result
        assert result.searcher == "join_everything"
        assert result.queries == 2

    def test_iarda_options_passthrough(self):
        from repro.data import housing_scenario

        scenario = housing_scenario(
            seed=0, n_irrelevant=4, n_erroneous=2, n_traps=2
        )
        engine = DiscoveryEngine(corpus=scenario.corpus)
        result = engine.discover(
            DiscoveryRequest(
                base=scenario.base,
                task=scenario.task,
                searcher="iarda",
                theta=0.9,
                query_budget=40,
                options={"target_column": "price_label"},
            )
        ).result
        assert result.searcher == "iarda"
