"""Differential suite: the array-native search core against its oracles.

``repro.core.quality`` / ``bandit`` / ``metam`` replaced per-candidate
Python loops with array state; the loops live on verbatim in
``tests/core/reference_*.py``.  Everything here asserts *bit* equality —
scores, tie-breaks, weights, query traces and the random generator's
final state — because a last-ulp difference in a quality score changes
which candidate is queried next.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Metam,
    MetamConfig,
    QualityScorer,
    ThompsonGroupSelector,
    cluster_partition,
)
from repro.core.clustering import Clusters, singleton_clusters
from tests.core import reference_bandit, reference_metam, reference_quality
from tests.core.search_cases import (
    EPSILONS,
    WIDTHS,
    make_search,
    partitions,
    profile_matrices,
    spread_profiles,
)

GAINS = [0.0, -0.0, 0.25, -0.25, 0.5, 1.0, 1e-9, float("nan"), float("inf"), float("-inf")]

relaxed = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_same_floats(new, old, what=""):
    """Equal bit for bit: -0.0 is distinct from 0.0; a NaN matches any
    NaN (the sign bit of a NaN carries no meaning, and numpy's array
    arithmetic and Python's float arithmetic do not agree on it)."""
    new = np.asarray(new, dtype=float)
    old = np.asarray(old, dtype=float)
    assert new.shape == old.shape, what
    assert np.array_equal(new, old, equal_nan=True), (what, new, old)
    numbers = ~np.isnan(new)
    assert np.array_equal(np.signbit(new[numbers]), np.signbit(old[numbers])), (what, new, old)


# ----------------------------------------------------------------------
# The equality the array scorer rests on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", WIDTHS + [31, 40])
def test_stacked_matmul_equals_per_row_dot(k):
    """``profiles @ weights`` (gemv) differs from the per-row dot product
    in the last ulp; the stacked form the scorer uses must not."""
    rng = np.random.default_rng(k)
    for trial in range(4):
        profiles = rng.uniform(0.0, 1.0, size=(600, k))
        weights = rng.uniform(0.0, 1.0, size=k)
        if trial % 2:
            weights[rng.integers(0, k)] = 0.0
        weights = weights / max(weights.sum(), 1e-12)
        stacked = np.matmul(profiles[:, None, :], weights)[:, 0]
        per_row = np.array([float(profiles[i] @ weights) for i in range(600)])
        assert np.array_equal(stacked, per_row)


# ----------------------------------------------------------------------
# Scorer
# ----------------------------------------------------------------------
def assert_same_scorer(new, old, exclusions=()):
    n = len(old.profiles)
    assert list(new.observed_gains) == list(old.observed_gains)
    assert_same_floats(
        list(new.observed_gains.values()), list(old.observed_gains.values()), "gains"
    )
    assert_same_floats(new.weights, old.weights, "weights")
    for name in ("profile_score", "utility_score", "quality"):
        assert_same_floats(
            [getattr(new, name)(i) for i in range(n)],
            [getattr(old, name)(i) for i in range(n)],
            name,
        )
    assert_same_floats(new.qualities, [old.quality(i) for i in range(n)], "qualities")
    assert new.best_unqueried() == old.best_unqueried()
    for indices, cluster_ids in exclusions:
        assert new.best_unqueried(
            excluded_indices=indices, excluded_clusters=cluster_ids
        ) == old.best_unqueried(
            excluded_indices=indices, excluded_clusters=cluster_ids
        )


@relaxed
@given(data=st.data())
def test_scorer_matches_reference(data):
    profiles = data.draw(profile_matrices())
    clusters = data.draw(partitions(profiles))
    n = len(profiles)
    min_fit = data.draw(st.integers(1, 4))
    new = QualityScorer(profiles, clusters, min_fit_samples=min_fit)
    old = reference_quality.QualityScorer(profiles, clusters, min_fit_samples=min_fit)
    assert_same_scorer(new, old)

    index = st.integers(0, n - 1)
    cluster_id = st.integers(0, clusters.n_clusters - 1)
    gain = st.one_of(
        st.sampled_from(GAINS), st.floats(-1.0, 1.0, allow_nan=False, width=64)
    )
    operation = st.one_of(
        st.tuples(st.just("update"), index, gain),
        st.tuples(st.just("observe"), index, gain),
        st.tuples(st.just("disable"), cluster_id),
    )
    # Few distinct indices in many operations: re-observation (with a
    # lower gain as often as a higher one) is the case max-updating gets
    # wrong.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf / NaN gains
        for op in data.draw(st.lists(operation, max_size=24)):
            if op[0] == "update":
                new.update(op[1], op[2])
                old.update(op[1], op[2])
            elif op[0] == "observe":
                new.observe(op[1], op[2])
                old.observed_gains[op[1]] = float(op[2])  # what observe() replaced
            else:
                new.disable_propagation(op[1])
                old.disable_propagation(op[1])
            exclusions = data.draw(
                st.lists(
                    st.tuples(st.sets(index, max_size=n), st.sets(cluster_id, max_size=3)),
                    max_size=2,
                )
            )
            assert_same_scorer(new, old, exclusions)


def test_reobserving_a_lower_gain_lowers_the_cluster():
    """The named trap: an index is re-queried in a later round and its
    gain overwritten downward; clustermates must follow it down."""
    profiles = np.array([[0.50, 0.50], [0.52, 0.50], [0.54, 0.50], [0.9, 0.1]])
    clusters = cluster_partition(profiles, 0.1, seed=0)
    new = QualityScorer(profiles, clusters)
    old = reference_quality.QualityScorer(profiles, clusters)
    for index, gain in [(0, 0.6), (2, 0.2), (0, 0.1), (2, -0.3), (0, 0.0)]:
        new.update(index, gain)
        old.update(index, gain)
        assert_same_scorer(new, old)
    assert new.utility_score(1) == 0.0


def test_nonfinite_gains_among_clustermates():
    """Every pair of special gains on two members of one cluster: a NaN
    product (NaN gain, or 0 × inf at distance exactly 1) is skipped, an
    infinite one wins, a negative one leaves the floor at +0.0."""
    profiles = np.array([[0.0, 0.5], [1.0, 0.5], [0.25, 0.5], [0.5, 0.5], [0.75, 0.5]])
    clusters = Clusters(profiles, [0], np.zeros(5, dtype=int))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for first in GAINS:
            for second in GAINS:
                new = QualityScorer(profiles, clusters)
                old = reference_quality.QualityScorer(profiles, clusters)
                for index, gain in [(0, first), (1, second)]:
                    new.observe(index, gain)
                    old.observed_gains[index] = float(gain)
                    assert_same_scorer(new, old)
                new.update(3, 0.5)
                old.update(3, 0.5)
                assert_same_scorer(new, old)


def test_observed_gains_is_read_only():
    profiles = np.array([[0.1], [0.2]])
    scorer = QualityScorer(profiles, singleton_clusters(profiles))
    with pytest.raises(TypeError):
        scorer.observed_gains[0] = 0.5
    scorer.observe(0, 0.5)
    assert dict(scorer.observed_gains) == {0: 0.5}
    assert np.allclose(scorer.weights, 1.0)  # observe() never refits


# ----------------------------------------------------------------------
# Bandit
# ----------------------------------------------------------------------
@relaxed
@given(data=st.data())
def test_bandit_matches_reference(data):
    profiles = data.draw(profile_matrices())
    clusters = data.draw(partitions(profiles))
    n = len(profiles)
    seed = data.draw(st.integers(0, 2**32 - 1))
    uniform = data.draw(st.booleans())
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = ThompsonGroupSelector(clusters, seed=new_rng, uniform=uniform)
    old = reference_bandit.ThompsonGroupSelector(clusters, seed=old_rng, uniform=uniform)

    score = st.one_of(
        st.sampled_from([0.0, 0.5, 0.5, 1.0, float("nan"), float("inf"), float("-inf")]),
        st.floats(0.0, 1.0, width=64),
    )
    for _ in range(data.draw(st.integers(1, 12))):
        size = data.draw(st.integers(0, 6))
        available = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        mode = data.draw(st.sampled_from(["random", "callable", "array", "mask"]))
        if mode == "random":
            group = new.sample_group(size, available)
            expected = old.sample_group(size, available)
        else:
            scores = np.array(data.draw(st.lists(score, min_size=n, max_size=n)))
            expected = old.sample_group(size, available, member_score=scores.__getitem__)
            if mode == "callable":
                group = new.sample_group(size, available, member_score=scores.__getitem__)
            elif mode == "array":
                group = new.sample_group(size, set(available), member_score=scores)
            else:
                mask = np.zeros(n, dtype=bool)
                mask[available] = True
                group = new.sample_group(size, mask, member_score=scores)
        assert group == expected
        assert all(type(member) is int for member in group)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        if group:
            success = data.draw(st.booleans())
            new.reward(group, success)
            old.reward(group, success)
        assert [new.posterior_mean(c) for c in range(clusters.n_clusters)] == [
            old.posterior_mean(c) for c in range(clusters.n_clusters)
        ]


# ----------------------------------------------------------------------
# Full searches
# ----------------------------------------------------------------------
def run_search(metam_class, candidates, base, task, seed, **config):
    """Everything observable about one search, as comparable values."""
    rng = np.random.default_rng(seed)
    rounds = []
    accepted = []
    outcome = None
    try:
        searcher = metam_class(candidates, base, {}, task, MetamConfig(seed=rng, **config))
        searcher.on_round = lambda *args: rounds.append(args)
        searcher.engine.on_accept = lambda *args: accepted.append(args)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            outcome = searcher.run()
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as error:
        return ("raised", type(error), str(error), repr(rounds), repr(accepted),
                rng.bit_generator.state)
    extras = dict(outcome.extras)
    weights = extras.pop("profile_weights", None)
    return (
        outcome.selected, repr(outcome.utility), repr(outcome.base_utility),
        outcome.queries, repr(outcome.trace), extras, repr(weights),
        repr(rounds), repr(accepted), rng.bit_generator.state,
    )


def assert_same_search(candidates, base, task, seed, **config):
    new = run_search(Metam, candidates, base, task, seed, **config)
    old = run_search(reference_metam.Metam, candidates, base, task, seed, **config)
    assert new == old
    return new


search_configs = st.fixed_dictionaries(
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
        "homogeneity": st.sampled_from(["lazy", "off", "active"]),
        "run_minimality": st.booleans(),
    }
)


@relaxed
@given(
    profiles=profile_matrices(max_rows=36),
    task_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    raw=st.sampled_from([False, False, False, True]),
    config=search_configs,
)
def test_search_matches_reference(profiles, task_seed, seed, raw, config):
    candidates, base, task = make_search(profiles, task_seed, raw=raw)
    assert_same_search(candidates, base, task, seed, **config)


@pytest.mark.parametrize("homogeneity", ["lazy", "off", "active"])
@pytest.mark.parametrize("run_minimality", [False, True])
def test_every_budget_until_past_exhaustion(homogeneity, run_minimality):
    """Budgets 1, 2, ... past the point where the search stops by itself:
    every place the budget can run out (base query, active probes, the
    sequential query, the group query, minimality) is hit by some value."""
    candidates, base, task = make_search(spread_profiles(3, 40), task_seed=11)
    config = dict(theta=1.0, epsilon=0.25, homogeneity=homogeneity,
                  run_minimality=run_minimality)
    unlimited = assert_same_search(candidates, base, task, 5, query_budget=10_000, **config)
    needed = unlimited[3]
    assert 20 < needed < 400
    for budget in range(1, needed + 4):
        result = assert_same_search(candidates, base, task, 5, query_budget=budget, **config)
        assert result[3] == min(budget, needed)


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("use_thompson", [True, False])
def test_epsilon_sweep(epsilon, use_thompson):
    candidates, base, task = make_search(spread_profiles(7, 150), task_seed=2)
    for seed in (0, 1):
        assert_same_search(candidates, base, task, seed, theta=0.9, epsilon=epsilon,
                           query_budget=120, use_thompson=use_thompson, group_interval=1)


def test_all_singletons_over_600():
    candidates, base, task = make_search(spread_profiles(1, 600), task_seed=4)
    result = assert_same_search(candidates, base, task, 0, theta=1.0, query_budget=90,
                                use_clustering=False, run_minimality=False)
    assert result[5]["n_clusters"] == 600


def test_one_cluster():
    candidates, base, task = make_search(spread_profiles(2, 30), task_seed=9)
    for homogeneity in ("lazy", "off", "active"):
        result = assert_same_search(candidates, base, task, 1, theta=1.0, epsilon=1.0,
                                    query_budget=80, homogeneity=homogeneity)
        assert result[5]["n_clusters"] == 1


def test_sequential_pool_runs_dry(monkeypatch):
    """One cluster, τ = 3: after one sequential query the round's pool is
    empty and only the group mechanism runs (the Theorem-3 path); with
    four candidates the pool also empties for good once all are selected."""
    dry = []
    best_where = QualityScorer.best_where

    def spy(self, eligible):
        index = best_where(self, eligible)
        if index is None:
            dry.append(int(eligible.sum()))
        return index

    monkeypatch.setattr(QualityScorer, "best_where", spy)
    profiles = np.array([[0.5, 0.5], [0.5, 0.5], [0.52, 0.5], [0.5, 0.52]])
    for task_seed in range(6):
        candidates, base, task = make_search(profiles, task_seed)
        assert_same_search(candidates, base, task, task_seed, theta=1.0,
                           epsilon=0.5, tau=3, query_budget=60,
                           group_interval=2, run_minimality=False)
    assert len(dry) >= 6 and set(dry) == {0}


def test_duplicate_profile_rows_tie_to_lowest_index():
    profiles = np.tile([[0.4, 0.6, 0.2]], (12, 1))
    candidates, base, task = make_search(profiles, task_seed=1)
    for use_clustering in (True, False):
        assert_same_search(candidates, base, task, 0, theta=1.0, query_budget=40,
                           use_clustering=use_clustering)
    scorer = QualityScorer(profiles, singleton_clusters(profiles))
    assert scorer.best_unqueried() == 0
    assert scorer.best_unqueried(excluded_indices={0, 1}) == 2
