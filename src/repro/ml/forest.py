"""Random forests built on the CART trees.

Also exposes per-feature *importances* (total impurity-weighted split
counts), which the ARDA-style task-specific profile uses for ranking
augmentations.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    check_max_features,
    check_xy,
)
from repro.utils.rng import ensure_rng, spawn_rng


class _BaseForest:
    _tree_class = None

    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        seed=None,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = check_max_features(max_features)
        self.seed = seed
        self.trees_ = []
        self._n_features = None

    def fit(self, x, y):
        # Validated once here; every tree grows on the same transposed
        # matrix, its bootstrap being nothing but the root's row indices.
        x, y = check_xy(x, y, self._tree_class._target_dtype)
        self._n_features = x.shape[1]
        xT = np.ascontiguousarray(x.T)
        rng = ensure_rng(self.seed)
        self.trees_ = []
        for _ in range(self.n_estimators):
            tree_rng = spawn_rng(rng)
            indices = tree_rng.integers(0, len(x), size=len(x))
            tree = self._tree_class(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(tree_rng.integers(0, 2**31 - 1)),
            )
            self.trees_.append(tree._grow(xT, y, indices))
        return self

    def _fitted_trees(self, what: str) -> list:
        if not self.trees_:
            raise RuntimeError(f"{what} called before fit")
        return self.trees_

    def _tree_predictions(self, x, what: str) -> np.ndarray:
        """``(n_estimators, n)`` predictions, one row per tree."""
        return np.stack([tree.predict(x) for tree in self._fitted_trees(what)])

    def feature_importances(self) -> np.ndarray:
        """Normalized split-frequency importance per feature."""
        trees = self._fitted_trees("feature_importances")
        splits = np.concatenate([tree.feature_ for tree in trees])
        counts = np.bincount(splits[splits >= 0], minlength=self._n_features).astype(float)
        total = counts.sum()
        return counts / total if total > 0 else counts


class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated CART classifier with majority voting."""

    _tree_class = DecisionTreeClassifier

    def fit(self, x, y):
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        return super().fit(x, y)

    def _vote_counts(self, x, what: str) -> np.ndarray:
        """``(n, n_classes)`` votes per row, columns in ``classes_`` order."""
        votes = self._tree_predictions(x, what)
        codes = np.searchsorted(self.classes_, votes)
        return (codes[:, :, None] == np.arange(len(self.classes_))).sum(axis=0)

    def predict(self, x) -> np.ndarray:
        # argmax takes the first maximum: the smallest label wins a tie.
        winners = self._vote_counts(x, "predict").argmax(axis=1)
        return self.classes_[winners]

    def predict_proba(self, x) -> np.ndarray:
        return self._vote_counts(x, "predict_proba") / len(self.trees_)


class RandomForestRegressor(_BaseForest):
    """Bootstrap-aggregated CART regressor averaging tree outputs."""

    _tree_class = DecisionTreeRegressor

    def predict(self, x) -> np.ndarray:
        return self._tree_predictions(x, "predict").mean(axis=0)
