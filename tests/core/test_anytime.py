"""The anytime guarantee: a search returns the best solution it paid for.

METAM certifies monotonicity by committing, at the end of each round, the
round's best improving candidate.  A budget that ends *inside* a round
used to discard that round's queries, so the result could be worse than
the best utility in its own trace (the pinned housing run answered 0.78
with 0.81 in its trace; at ε ≤ 0.1 over 600 spread-out candidates no
round ever completed and the bare base came back).

The property, for ``run_minimality=False`` and ``homogeneity`` lazy or
off, at every budget::

    result.utility == result.trace[-1][1] == engine utility of result.selected

Excluded, because there the trace's maximum is not a solution the search
holds: ``homogeneity="active"`` (its probe queries evaluate single
augmentations outside any solution) and ``run_minimality=True``
(IDENTIFY-MINIMAL trades utility above θ for a smaller set).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.spine import inputs
from repro.core import Metam, MetamConfig
from tests.core.search_cases import EPSILONS, make_search, profile_matrices, spread_profiles


def assert_anytime(candidates, base, corpus, task, **config):
    searcher = Metam(candidates, base, corpus, task,
                     MetamConfig(run_minimality=False, **config))
    result = searcher.run()
    assert result.queries <= config["query_budget"]
    assert result.utility == result.trace[-1][1]
    assert searcher.engine.cached_utility(result.selected) == result.utility
    return result


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    profiles=profile_matrices(max_rows=36),
    task_seed=st.integers(0, 2**16),
    config=st.fixed_dictionaries(
        {
            "theta": st.sampled_from([0.3, 0.6, 0.8, 1.0]),
            "epsilon": st.sampled_from(EPSILONS),
            "tau": st.sampled_from([None, None, 1, 2, 5]),
            "query_budget": st.integers(1, 70),
            "max_group_size": st.integers(1, 5),
            "groups_per_size": st.sampled_from([None, 1, 3]),
            "group_interval": st.sampled_from([1, 2]),
            "use_clustering": st.booleans(),
            "use_thompson": st.booleans(),
            "homogeneity": st.sampled_from(["lazy", "off"]),
            "seed": st.integers(0, 2**16),
        }
    ),
)
def test_result_is_the_best_query_paid_for(profiles, task_seed, config):
    candidates, base, task = make_search(profiles, task_seed)
    assert_anytime(candidates, base, {}, task, **config)


@pytest.mark.parametrize("homogeneity", ["lazy", "off"])
def test_every_budget(homogeneity):
    candidates, base, task = make_search(spread_profiles(3, 40), task_seed=11)
    utilities = [
        assert_anytime(candidates, base, {}, task, theta=1.0, epsilon=0.25,
                       homogeneity=homogeneity, query_budget=budget, seed=5).utility
        for budget in range(1, 140)
    ]
    # One seed, one query order: a larger budget extends the same trace.
    assert utilities == sorted(utilities)
    assert utilities[-1] > utilities[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_longer_than_the_budget_still_commits(seed):
    """ε = 0.1 over 600 spread-out profiles: ~600 near-singleton clusters,
    so the first round alone outlasts a 200-query budget."""
    state = inputs.planted_search(seed, 600)
    result = assert_anytime(
        state["candidates"], state["base"], state["corpus"], state["task"],
        theta=1.0, epsilon=0.1, query_budget=200, seed=seed,
    )
    assert result.extras["n_clusters"] > 200
    assert result.utility > result.base_utility
    assert result.selected
