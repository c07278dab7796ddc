"""Tests for the query engine, monotone state, minimality and bandit."""

import numpy as np
import pytest

from repro.core import (
    MonotoneState,
    QueryBudgetExhausted,
    QueryEngine,
    ThompsonGroupSelector,
    identify_minimal,
)
from repro.core.clustering import cluster_partition
from repro.dataframe import Table
from repro.discovery import Candidate
from repro.tasks.base import Task


class FakeAug:
    """Augmentation stub: appends a constant column."""

    def __init__(self, aug_id, value=1.0):
        self.aug_id = aug_id
        self.value = value

    def apply(self, table, base, corpus):
        if self.aug_id in table:
            return table
        return table.with_column(self.aug_id, [self.value] * table.num_rows)


class SetUtilityTask(Task):
    """Task whose utility is a lookup over the set of augmented columns."""

    name = "fake"

    def __init__(self, utilities, default=0.1):
        self.utilities = {frozenset(k): v for k, v in utilities.items()}
        self.default = default

    def utility(self, table):
        augs = frozenset(c for c in table.column_names if c.startswith("aug"))
        return self.utilities.get(augs, self.default)


def make_engine(utilities, n_augs=3, budget=None, default=0.1):
    base = Table("base", {"x": [1, 2, 3]})
    candidates = [
        Candidate(aug=FakeAug(f"aug{i}"), values=[1.0] * 3, overlap=1.0)
        for i in range(n_augs)
    ]
    task = SetUtilityTask(utilities, default=default)
    return QueryEngine(task, base, {}, candidates, budget=budget)


class TestQueryEngine:
    def test_base_utility(self):
        engine = make_engine({(): 0.4})
        assert engine.base_utility() == 0.4

    def test_caching_no_double_count(self):
        engine = make_engine({(): 0.4})
        engine.utility({"aug0"})
        engine.utility({"aug0"})
        assert engine.queries == 1

    def test_budget_enforced(self):
        engine = make_engine({}, budget=2)
        engine.utility({"aug0"})
        engine.utility({"aug1"})
        with pytest.raises(QueryBudgetExhausted):
            engine.utility({"aug2"})

    def test_trace_best_so_far(self):
        engine = make_engine({("aug0",): 0.9, ("aug1",): 0.3})
        engine.utility({"aug1"})
        engine.utility({"aug0"})
        assert engine.trace == [(1, 0.3), (2, 0.9)]
        assert engine.best_utility == 0.9

    def test_utility_at(self):
        engine = make_engine({("aug0",): 0.9, ("aug1",): 0.3})
        engine.utility({"aug1"})
        engine.utility({"aug0"})
        assert engine.utility_at(1) == 0.3
        assert engine.utility_at(2) == 0.9

    def test_unknown_candidate(self):
        engine = make_engine({})
        with pytest.raises(KeyError):
            engine.utility({"ghost"})

    def test_order_insensitive_cache(self):
        engine = make_engine({("aug0", "aug1"): 0.7})
        a = engine.utility({"aug0", "aug1"})
        b = engine.utility({"aug1", "aug0"})
        assert a == b == 0.7
        assert engine.queries == 1

    def test_cached_utility_returns_memoized(self):
        engine = make_engine({("aug0",): 0.9})
        assert engine.cached_utility({"aug0"}) is None
        engine.utility({"aug0"})
        assert engine.cached_utility({"aug0"}) == 0.9
        assert engine.cached_utility(["aug0"]) == 0.9  # any iterable

    def test_cached_utility_spends_no_query(self):
        engine = make_engine({}, budget=1)
        engine.utility({"aug0"})
        engine.cached_utility({"aug1"})
        engine.cached_utility({"aug0"})
        assert engine.queries == 1  # lookups never queried the task


class TestMonotoneState:
    def test_accepts_improving(self):
        engine = make_engine({(): 0.2, ("aug0",): 0.5})
        state = MonotoneState(engine)
        accepted, value = state.try_add("aug0")
        assert accepted and value == 0.5
        assert state.selected == ["aug0"]

    def test_rejects_worsening(self):
        engine = make_engine({(): 0.5, ("aug0",): 0.3})
        state = MonotoneState(engine)
        accepted, value = state.try_add("aug0")
        assert not accepted
        assert state.utility == 0.5
        assert state.rejections == 1

    def test_rejects_tie(self):
        engine = make_engine({(): 0.5, ("aug0",): 0.5})
        state = MonotoneState(engine)
        accepted, _ = state.try_add("aug0")
        assert not accepted

    def test_duplicate_add_noop(self):
        engine = make_engine({(): 0.2, ("aug0",): 0.5})
        state = MonotoneState(engine)
        state.try_add("aug0")
        accepted, _ = state.try_add("aug0")
        assert not accepted
        assert state.selected == ["aug0"]

    def test_accept_validates(self):
        engine = make_engine({(): 0.5})
        state = MonotoneState(engine)
        with pytest.raises(ValueError):
            state.accept("aug0", 0.4)


class TestIdentifyMinimal:
    def test_redundant_augmentation_dropped(self):
        utilities = {
            (): 0.1,
            ("aug0",): 0.9,
            ("aug1",): 0.2,
            ("aug0", "aug1"): 0.9,
        }
        engine = make_engine(utilities)
        kept = identify_minimal(["aug0", "aug1"], engine, theta=0.9)
        assert kept == ["aug0"]

    def test_all_needed_kept(self):
        utilities = {
            (): 0.1,
            ("aug0",): 0.4,
            ("aug1",): 0.4,
            ("aug0", "aug1"): 0.9,
        }
        engine = make_engine(utilities)
        kept = identify_minimal(["aug0", "aug1"], engine, theta=0.9)
        assert sorted(kept) == ["aug0", "aug1"]

    def test_single_element_untouched(self):
        engine = make_engine({})
        assert identify_minimal(["aug0"], engine, theta=0.5) == ["aug0"]

    def test_budget_exhaustion_returns_known_good(self):
        utilities = {("aug0",): 0.9, ("aug1",): 0.9, ("aug0", "aug1"): 0.9}
        engine = make_engine(utilities, budget=1)
        kept = identify_minimal(["aug0", "aug1"], engine, theta=0.9)
        assert len(kept) >= 1


class TestThompson:
    @pytest.fixture
    def clusters(self):
        vectors = np.array([[0.0, 0.0], [0.01, 0.0], [1.0, 1.0], [0.99, 1.0]])
        return cluster_partition(vectors, 0.1, seed=0)

    def test_group_size_respected(self, clusters):
        bandit = ThompsonGroupSelector(clusters, seed=0)
        group = bandit.sample_group(2, available=range(4))
        assert len(group) == 2

    def test_one_member_per_cluster(self, clusters):
        bandit = ThompsonGroupSelector(clusters, seed=0)
        group = bandit.sample_group(2, available=range(4))
        assert len({clusters.cluster_of(i) for i in group}) == 2

    def test_empty_available(self, clusters):
        bandit = ThompsonGroupSelector(clusters, seed=0)
        assert bandit.sample_group(2, available=[]) == []

    def test_rewards_shift_posterior(self, clusters):
        bandit = ThompsonGroupSelector(clusters, seed=0)
        cid = clusters.cluster_of(0)
        before = bandit.posterior_mean(cid)
        bandit.reward([0], success=True)
        assert bandit.posterior_mean(cid) > before
        bandit.reward([0], success=False)
        bandit.reward([0], success=False)
        assert bandit.posterior_mean(cid) < before + 0.2

    def test_successful_cluster_sampled_more(self, clusters):
        bandit = ThompsonGroupSelector(clusters, seed=0)
        for _ in range(20):
            bandit.reward([0], success=True)   # cluster of 0/1
            bandit.reward([2], success=False)  # cluster of 2/3
        picks = [bandit.sample_group(1, available=range(4))[0] for _ in range(30)]
        from_good = sum(1 for p in picks if clusters.cluster_of(p) == clusters.cluster_of(0))
        assert from_good > 20

    def test_member_score_picks_best(self, clusters):
        bandit = ThompsonGroupSelector(clusters, seed=0)
        score = {0: 0.1, 1: 0.9, 2: 0.2, 3: 0.8}.get
        group = bandit.sample_group(2, available=range(4), member_score=score)
        assert set(group) <= {1, 3}

    def test_uniform_mode_ignores_rewards(self, clusters):
        bandit = ThompsonGroupSelector(clusters, seed=0, uniform=True)
        for _ in range(50):
            bandit.reward([0], success=True)
        draws = bandit.posterior_samples()
        assert draws.shape == (clusters.n_clusters,)
