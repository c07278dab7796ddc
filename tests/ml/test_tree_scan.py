"""Correctness tests for the vectorized split scan against brute force,
through the public ``fit(max_depth=1)``: the root of a stump is one scan."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _gini


def brute_force_best_split(x_col, y, impurity_fn):
    """Reference implementation: evaluate every boundary directly."""
    order = np.argsort(x_col, kind="stable")
    xs, ys = x_col[order], y[order]
    n = len(ys)
    best = (np.inf, None)
    for pos in range(n - 1):
        if xs[pos] == xs[pos + 1]:
            continue
        left, right = ys[: pos + 1], ys[pos + 1 :]
        weighted = (len(left) * impurity_fn(left) + len(right) * impurity_fn(right)) / n
        if weighted < best[0]:
            best = (weighted, (xs[pos] + xs[pos + 1]) / 2.0)
    return best


def gini_of(labels):
    _, counts = np.unique(labels, return_counts=True)
    return _gini(counts.astype(float))


def variance_of(values):
    return float(np.var(values))


def assert_stump_matches_brute_force(stump, x, y, impurity_fn):
    """With every boundary a candidate, the stump's root split is as good
    as the best boundary, and it splits whenever a boundary gains."""
    expected_impurity, expected_threshold = brute_force_best_split(
        x[:, 0], y, impurity_fn
    )
    gains = expected_threshold is not None and (
        impurity_fn(y) - expected_impurity > 1e-9
    )
    if stump.depth() == 0:
        assert not gains
        return
    assert stump.feature_[0] == 0
    mask = x[:, 0] <= stump.threshold_[0]
    got = (
        mask.sum() * impurity_fn(y[mask]) + (~mask).sum() * impurity_fn(y[~mask])
    ) / len(y)
    assert got <= expected_impurity + 1e-9
    assert got < impurity_fn(y)


class TestClassifierScan:
    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        x = rng.normal(size=(n, 1))
        y = rng.integers(0, 3, size=n)
        stump = DecisionTreeClassifier(max_depth=1, n_thresholds=1000, seed=0).fit(x, y)
        assert_stump_matches_brute_force(stump, x, y, gini_of)


class TestRegressorScan:
    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        stump = DecisionTreeRegressor(max_depth=1, n_thresholds=1000, seed=0).fit(x, y)
        assert_stump_matches_brute_force(stump, x, y, variance_of)


class TestBoundaries:
    def test_min_samples_leaf_respected(self):
        # The pure split (after the first row) would leave one row on the left.
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([0, 1, 1, 1, 1, 1])
        stump = DecisionTreeClassifier(
            max_depth=1, min_samples_leaf=3, n_thresholds=100
        ).fit(x, y)
        assert stump.threshold_[0] == 3.5
        assert DecisionTreeClassifier(max_depth=1, n_thresholds=100).fit(
            x, y
        ).threshold_[0] == 1.5

    def test_constant_column_no_boundaries(self):
        stump = DecisionTreeClassifier(max_depth=1).fit(np.full((10, 1), 3.0), np.arange(10) % 2)
        assert stump.depth() == 0

    def test_subsampling_caps_positions(self):
        # 99 boundaries, 4 kept: after sorted rows 0, 32, 65 and 98.  The
        # step at 50 is none of them, so the stump takes the nearest kept.
        x = np.arange(100, dtype=float).reshape(-1, 1)
        y = (x[:, 0] >= 50).astype(float)
        stump = DecisionTreeRegressor(max_depth=1, n_thresholds=4).fit(x, y)
        assert stump.threshold_[0] in (0.5, 32.5, 65.5, 98.5)
        assert DecisionTreeRegressor(max_depth=1, n_thresholds=1000).fit(
            x, y
        ).threshold_[0] == 49.5
