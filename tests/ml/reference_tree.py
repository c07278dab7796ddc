"""Executable spec of ``repro.ml.tree``: the recursive CART builder it
replaced, kept verbatim below this paragraph.  ``test_tree_diff.py`` holds
the array-native builder to it bit for bit; nothing in ``src/`` imports it.

CART decision trees (classification via Gini, regression via variance).

The split search evaluates a bounded number of candidate thresholds per
feature (quantiles of the node's sample), which keeps training fast enough
for METAM's hundreds of interventional queries while preserving accuracy on
the small-to-medium tables of the evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


class _Node:
    """Internal tree node; leaves have ``value`` set and no children."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature=None, threshold=None, left=None, right=None, value=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


class _BaseDecisionTree:
    """Shared recursive builder for the classifier and the regressor."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        n_thresholds: int = 16,
        seed=None,
    ):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.n_thresholds = n_thresholds
        self.seed = seed
        self._root = None
        self._n_features = None

    # -- subclass hooks -------------------------------------------------
    def _leaf_value(self, y):
        raise NotImplementedError

    def _impurity(self, y) -> float:
        raise NotImplementedError

    def _prepare_target(self, y):
        return np.asarray(y)

    # -- fitting ---------------------------------------------------------
    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        y = self._prepare_target(y)
        if len(x) != len(y):
            raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
        if len(x) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains NaN/inf; impute before fitting")
        self._n_features = x.shape[1]
        rng = ensure_rng(self.seed)
        self._root = self._build(x, y, depth=0, rng=rng)
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self._n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self._n_features)))
        return max(1, min(int(self.max_features), self._n_features))

    def _build(self, x, y, depth, rng) -> _Node:
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or self._impurity(y) == 0.0
        ):
            return _Node(value=self._leaf_value(y))

        feature, threshold = self._best_split(x, y, rng)
        if feature is None:
            return _Node(value=self._leaf_value(y))

        mask = x[:, feature] <= threshold
        left = self._build(x[mask], y[mask], depth + 1, rng)
        right = self._build(x[~mask], y[~mask], depth + 1, rng)
        return _Node(feature=feature, threshold=threshold, left=left, right=right)

    def _boundaries(self, sorted_col: np.ndarray) -> np.ndarray:
        """Candidate split positions: indices after which the sorted value
        changes, subsampled to at most ``n_thresholds`` and filtered by the
        leaf-size constraint."""
        n = len(sorted_col)
        positions = np.nonzero(sorted_col[1:] != sorted_col[:-1])[0]
        if positions.size == 0:
            return positions
        if positions.size > self.n_thresholds:
            picks = np.linspace(0, positions.size - 1, self.n_thresholds).astype(int)
            positions = positions[picks]
        sizes_left = positions + 1
        valid = (sizes_left >= self.min_samples_leaf) & (
            n - sizes_left >= self.min_samples_leaf
        )
        return positions[valid]

    def _scan_splits(self, sorted_col, sorted_y, positions):
        """Weighted child impurity per candidate position (subclass hook)."""
        raise NotImplementedError

    def _best_split(self, x, y, rng):
        n_feats = self._n_candidate_features()
        if n_feats < self._n_features:
            features = rng.choice(self._n_features, size=n_feats, replace=False)
        else:
            features = range(self._n_features)

        parent = self._impurity(y)
        best_gain = 1e-12
        best = (None, None)
        for feature in features:
            column = x[:, feature]
            order = np.argsort(column, kind="quicksort")
            sorted_col = column[order]
            positions = self._boundaries(sorted_col)
            if positions.size == 0:
                continue
            impurities = self._scan_splits(sorted_col, y[order], positions)
            local_best = int(np.argmin(impurities))
            gain = parent - float(impurities[local_best])
            if gain > best_gain:
                best_gain = gain
                pos = int(positions[local_best])
                best = (
                    int(feature),
                    float((sorted_col[pos] + sorted_col[pos + 1]) / 2.0),
                )
        return best

    # -- prediction -------------------------------------------------------
    def _predict_one(self, row):
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, x) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("predict called before fit")
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self._n_features:
            raise ValueError(
                f"x must have shape (n, {self._n_features}), got {x.shape}"
            )
        return np.array([self._predict_one(row) for row in x])

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""

        def _depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        if self._root is None:
            raise RuntimeError("depth called before fit")
        return _depth(self._root)


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier over integer-encoded labels."""

    def _prepare_target(self, y):
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        return y

    def _impurity(self, y) -> float:
        _, counts = np.unique(y, return_counts=True)
        return _gini(counts.astype(float))

    def _leaf_value(self, y):
        values, counts = np.unique(y, return_counts=True)
        return values[int(np.argmax(counts))]

    def _scan_splits(self, sorted_col, sorted_y, positions):
        """Vectorized Gini scan via cumulative class counts."""
        n = len(sorted_y)
        _, codes = np.unique(sorted_y, return_inverse=True)
        n_classes = codes.max() + 1
        one_hot = np.zeros((n, n_classes))
        one_hot[np.arange(n), codes] = 1.0
        cum = np.cumsum(one_hot, axis=0)
        left = cum[positions]                      # (b, c)
        right = cum[-1] - left
        n_left = (positions + 1).astype(float)
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        return (n_left * gini_left + n_right * gini_right) / n

    def predict_proba(self, x) -> np.ndarray:
        """Hard class-membership probabilities (0/1 per leaf vote)."""
        preds = self.predict(x)
        out = np.zeros((len(preds), len(self.classes_)))
        index = {c: i for i, c in enumerate(self.classes_)}
        for i, p in enumerate(preds):
            out[i, index[p]] = 1.0
        return out


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor minimizing within-node variance."""

    def _prepare_target(self, y):
        return np.asarray(y, dtype=float)

    def _impurity(self, y) -> float:
        if y.size == 0:
            return 0.0
        return float(np.var(y))

    def _leaf_value(self, y):
        return float(np.mean(y))

    def _scan_splits(self, sorted_col, sorted_y, positions):
        """Vectorized variance scan via cumulative sums of y and y²."""
        n = len(sorted_y)
        cum_y = np.cumsum(sorted_y)
        cum_y2 = np.cumsum(sorted_y**2)
        n_left = (positions + 1).astype(float)
        n_right = n - n_left
        sum_left = cum_y[positions]
        sum_right = cum_y[-1] - sum_left
        sum2_left = cum_y2[positions]
        sum2_right = cum_y2[-1] - sum2_left
        var_left = np.maximum(0.0, sum2_left / n_left - (sum_left / n_left) ** 2)
        var_right = np.maximum(
            0.0, sum2_right / n_right - (sum_right / n_right) ** 2
        )
        return (n_left * var_left + n_right * var_right) / n
