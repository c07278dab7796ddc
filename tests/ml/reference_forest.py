"""Executable spec of ``repro.ml.forest``: the forests as they were on top
of ``reference_tree`` (per-row voting loops, recursive importance walk),
verbatim below this paragraph apart from that import.

Random forests built on the CART trees.

Also exposes per-feature *importances* (total impurity-weighted split
counts), which the ARDA-style task-specific profile uses for ranking
augmentations.
"""

from __future__ import annotations

import numpy as np

from tests.ml.reference_tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.utils.rng import ensure_rng, spawn_rng


class _BaseForest:
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
        self.max_features = max_features
        self.seed = seed
        self.trees_ = []
        self._n_features = None

    def _make_tree(self, seed):
        raise NotImplementedError

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        if len(x) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._n_features = x.shape[1]
        rng = ensure_rng(self.seed)
        self.trees_ = []
        for _ in range(self.n_estimators):
            tree_rng = spawn_rng(rng)
            indices = tree_rng.integers(0, len(x), size=len(x))
            tree = self._make_tree(int(tree_rng.integers(0, 2**31 - 1)))
            tree.fit(x[indices], y[indices])
            self.trees_.append(tree)
        return self

    def feature_importances(self) -> np.ndarray:
        """Normalized split-frequency importance per feature."""
        if not self.trees_:
            raise RuntimeError("feature_importances called before fit")
        counts = np.zeros(self._n_features)

        def _walk(node):
            if node.is_leaf:
                return
            counts[node.feature] += 1.0
            _walk(node.left)
            _walk(node.right)

        for tree in self.trees_:
            _walk(tree._root)
        total = counts.sum()
        return counts / total if total > 0 else counts


class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated CART classifier with majority voting."""

    def _make_tree(self, seed):
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
        )

    def fit(self, x, y):
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        return super().fit(x, y)

    def predict(self, x) -> np.ndarray:
        votes = np.stack([tree.predict(x) for tree in self.trees_])
        out = []
        for j in range(votes.shape[1]):
            values, counts = np.unique(votes[:, j], return_counts=True)
            out.append(values[int(np.argmax(counts))])
        return np.array(out)

    def predict_proba(self, x) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.classes_)}
        probs = np.zeros((len(np.asarray(x)), len(self.classes_)))
        for tree in self.trees_:
            for i, p in enumerate(tree.predict(x)):
                probs[i, index[p]] += 1.0
        return probs / len(self.trees_)


class RandomForestRegressor(_BaseForest):
    """Bootstrap-aggregated CART regressor averaging tree outputs."""

    def _make_tree(self, seed):
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
        )

    def predict(self, x) -> np.ndarray:
        preds = np.stack([tree.predict(x) for tree in self.trees_])
        return preds.mean(axis=0)
