"""Pinned end-to-end values: the whole-pipeline backstop over the
per-kernel differential tests.

Any exactness break in hashing, signing, profiling, or candidate
scoring surfaces here as a changed selection or utility.  The goldens
were produced at the last commit that still had the scalar kernel mode
(PR 23, ``a011fdc``), where a full ``prepare`` + ``discover`` under the
vectorized kernels and under the scalar loops agreed on every value
below — so they pin both.
"""

import numpy as np
import pytest

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.core.config import MetamConfig
from repro.data import clustering_scenario
from tests.kernels import reference_bulk
from tests.kernels.util import hash_strings_oracle

SEED_MATRIX = (0, 1, 2)

ONI = "ingredient_id→nutrition_db.ingredient_id#oni_score"
BASE_UTILITY = 0.44845652086488497
UTILITY = 0.6499350915691032

#: seed -> queries issued; every run selects ``[ONI]`` out of 7
#: candidates, and its trace is the base utility at query 1 then
#: ``UTILITY`` at every later query.
DISCOVER_QUERIES = {0: 6, 1: 6, 2: 7}

_COMMON = [
    (ONI, 1.0),
    ("ingredient_id→fire_hydrants.ingredient_id#hydrant_count", 0.9583333333333334),
    ("ingredient_id→bike_racks.ingredient_id#rack_count", 0.875),
    ("ingredient_id→film_permits.ingredient_id#permit_count", 0.8333333333333334),
    ("ingredient_id→food_trucks.ingredient_id#truck_count", 0.75),
]
_NOISE = ("ingredient_id→noise_complaints.ingredient_id#complaint_count", 0.6333333333333333)
_TREES = ("ingredient_id→street_trees.ingredient_id#tree_count", 0.6333333333333333)
_WIFI = ("ingredient_id→wifi_hotspots.ingredient_id#hotspot_count", 0.55)

#: seed -> ``(aug_id, overlap)`` of every prepared candidate, in order.
PREPARED = {
    0: _COMMON + [_TREES, _WIFI],
    1: _COMMON + [_NOISE, _TREES, _WIFI],
    2: _COMMON + [_NOISE, _TREES],
}


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


@pytest.mark.parametrize("seed", SEED_MATRIX)
def test_discover_matches_pinned_values(scenario, seed):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    run = engine.discover(
        DiscoveryRequest(
            base=scenario.base,
            task=scenario.task,
            searcher="metam",
            config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed),
        )
    )
    assert run.completed
    queries = DISCOVER_QUERIES[seed]
    assert run.selected == [ONI]
    assert run.result.utility == UTILITY
    assert run.result.base_utility == BASE_UTILITY
    assert run.result.queries == queries
    assert [tuple(point) for point in run.result.trace] == [(1, BASE_UTILITY)] + [
        (q, UTILITY) for q in range(2, queries + 1)
    ]
    assert run.n_candidates == 7


@pytest.mark.parametrize("seed", SEED_MATRIX)
def test_prepared_candidates_match_pinned_values(scenario, seed):
    engine = DiscoveryEngine(corpus=scenario.corpus)
    candidates = engine.prepare(scenario.base, seed=seed)
    assert [(c.aug_id, c.overlap) for c in candidates] == PREPARED[seed]


def test_signatures_match_scalar_oracle_seed_matrix():
    """Index-level signatures (what artifacts persist) equal the scalar
    oracle's for every seed."""
    from repro.discovery import MinHasher

    value_sets = [
        set(),
        {"a", "b", "c"},
        {str(v) for v in range(100)},
        {"café", "", " ", "x" * 200},
    ]
    for seed in SEED_MATRIX:
        hasher = MinHasher(64, seed=seed)
        batch = hasher.signatures(value_sets)
        for values, batch_row in zip(value_sets, batch, strict=True):
            expected = reference_bulk.minhash_from_hashes(
                hash_strings_oracle(values), hasher._a, hasher._b
            )
            assert np.array_equal(hasher.signature(values), expected)
            assert np.array_equal(batch_row, expected)
