"""Golden end-to-end regression: pinned Metam discovery output.

Pins the full discovery front-end + search-loop output (candidate set,
selected augmentations, utility trajectory) on a small seeded scenario,
so catalog/storage refactors can never silently drift results.  The same
pinned run is repeated catalog-backed (warm start from a freshly saved
store), which must be indistinguishable from the cold run.

If an *intentional* algorithm change moves these values, regenerate them
with the cold run below and update the constants in the same commit.
"""

import hashlib

import numpy as np
import pytest

from repro import DiscoveryEngine, DiscoveryRequest, MetamConfig
from repro.catalog import Catalog, CatalogStore
from repro.data import housing_scenario

SEED = 0
CONFIG = dict(theta=0.8, query_budget=30, epsilon=0.1, seed=SEED)

GOLDEN_N_CANDIDATES = 34
GOLDEN_FIRST_IDS = [
    "zipcode→bike_racks.zipcode#rack_count",
    "zipcode→lookalike_0.zipcode#shadow_metric_0",
    "zipcode→lookalike_1.zipcode#shadow_metric_1",
    "zipcode→lookalike_2.zipcode#shadow_metric_2",
    "zipcode→lookalike_3.zipcode#shadow_metric_3",
]
GOLDEN_IDS_DIGEST = "bdd079a8d5ff0e0b"
# Re-pinned with the anytime fix: the budget ends inside round 2, whose
# best query ({police_reports, acs_income} = 0.81, query 18) used to be
# discarded, leaving round 1's {acs_income} at 0.78 under a 0.81 trace.
GOLDEN_SELECTED = [
    "zipcode→police_reports.zipcode#crime_count",
    "zipcode→acs_income.zipcode#median_income",
]
GOLDEN_BASE_UTILITY = 0.51
GOLDEN_UTILITY = 0.81
GOLDEN_QUERIES = 30
# (query index, best-utility-so-far) pairs, the paper's figure axes.
GOLDEN_TRACE = (
    [(q, 0.51) for q in range(1, 5)]
    + [(5, 0.61)]
    + [(q, 0.65) for q in range(6, 17)]
    + [(17, 0.66)]
    + [(q, 0.81) for q in range(18, 31)]
)


def ids_digest(candidates) -> str:
    joined = "\n".join(c.aug_id for c in candidates)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=8).hexdigest()


@pytest.fixture(scope="module")
def scenario():
    return housing_scenario(seed=SEED)


@pytest.fixture(scope="module")
def cold(scenario):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    candidates = engine.prepare(scenario.base, seed=SEED)
    return candidates, metam_over(engine, scenario, candidates)


def metam_over(engine, scenario, candidates):
    """The pinned METAM run over an already prepared candidate list."""
    request = DiscoveryRequest(
        base=scenario.base,
        task=scenario.task,
        searcher="metam",
        config=MetamConfig(**CONFIG),
        candidates=candidates,
    )
    return engine.discover(request).result


class TestGoldenColdRun:
    def test_candidate_set_pinned(self, cold):
        candidates, _result = cold
        assert len(candidates) == GOLDEN_N_CANDIDATES
        assert [c.aug_id for c in candidates[:5]] == GOLDEN_FIRST_IDS
        assert ids_digest(candidates) == GOLDEN_IDS_DIGEST

    def test_search_output_pinned(self, cold):
        _candidates, result = cold
        assert result.selected == GOLDEN_SELECTED
        assert round(result.base_utility, 6) == GOLDEN_BASE_UTILITY
        assert round(result.utility, 6) == GOLDEN_UTILITY
        assert result.queries == GOLDEN_QUERIES
        assert [(q, round(u, 6)) for q, u in result.trace] == GOLDEN_TRACE


class TestGoldenEngineRun:
    def test_engine_run_matches_golden(self, scenario, cold):
        """Prepare inside discover must reproduce the run over a
        supplied candidate list byte for byte."""
        cold_candidates, cold_result = cold
        engine = DiscoveryEngine(corpus=scenario.corpus)
        run = engine.discover(
            DiscoveryRequest(
                base=scenario.base,
                task=scenario.task,
                searcher="metam",
                seed=SEED,
                config=MetamConfig(**CONFIG),
            )
        )
        assert run.n_candidates == GOLDEN_N_CANDIDATES
        assert run.result.selected == GOLDEN_SELECTED
        assert round(run.result.base_utility, 6) == GOLDEN_BASE_UTILITY
        assert round(run.result.utility, 6) == GOLDEN_UTILITY
        assert run.result.queries == GOLDEN_QUERIES
        assert [(q, round(u, 6)) for q, u in run.result.trace] == GOLDEN_TRACE
        assert run.result.trace == cold_result.trace  # exact, not rounded
        prepared = engine.prepare(scenario.base, seed=SEED)
        assert ids_digest(prepared) == GOLDEN_IDS_DIGEST
        for cold_c, engine_c in zip(cold_candidates, prepared, strict=True):
            assert np.array_equal(cold_c.profile_vector, engine_c.profile_vector)


class TestGoldenCatalogRun:
    def test_catalog_backed_run_matches_golden(self, tmp_path, scenario, cold):
        cold_candidates, cold_result = cold
        catalog = Catalog(
            CatalogStore(str(tmp_path / "cat")), min_containment=0.3, seed=SEED
        )
        catalog.refresh(scenario.corpus)
        catalog.save()

        warm_catalog = Catalog.load(str(tmp_path / "cat"), corpus=scenario.corpus)
        engine = DiscoveryEngine(corpus=scenario.corpus, catalog=warm_catalog)
        candidates = engine.prepare(scenario.base, seed=SEED)
        assert warm_catalog.computed_columns == 0
        assert ids_digest(candidates) == GOLDEN_IDS_DIGEST
        for cold_c, warm_c in zip(cold_candidates, candidates, strict=True):
            assert np.array_equal(cold_c.profile_vector, warm_c.profile_vector)

        result = metam_over(engine, scenario, candidates)
        assert result.selected == GOLDEN_SELECTED
        assert round(result.utility, 6) == GOLDEN_UTILITY
        assert [(q, round(u, 6)) for q, u in result.trace] == GOLDEN_TRACE
        assert result.trace == cold_result.trace  # exact, not just rounded
