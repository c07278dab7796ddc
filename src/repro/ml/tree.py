"""CART decision trees (classification via Gini, regression via variance).

The split search evaluates a bounded number of candidate thresholds per
feature (quantiles of the node's sample), which keeps training fast enough
for METAM's hundreds of interventional queries while preserving accuracy on
the small-to-medium tables of the evaluation.

A fitted tree is five parallel arrays in pre-order (node 0 is the root,
``left_[i] == i + 1`` for every internal node): ``feature_`` (``-1`` at a
leaf), ``threshold_`` (``nan`` at a leaf), ``left_`` / ``right_`` (a leaf
points at itself, so a walk that has arrived stays put) and ``value_``
(the node's own prediction; only leaves are ever returned).  ``predict``,
``depth`` and the forest's importances are array walks over them.

One builder grows both criteria from a row-index array per node over a
transposed feature matrix, so a node gathers only the columns it draws.
It is pinned bit for bit to ``tests/ml/reference_tree.py`` (the recursive
builder this one replaced) by ``tests/ml/test_tree_diff.py``.  Three
things are load-bearing for that identity and must not be "optimised":

* each candidate column is ``argsort``-ed with ``kind="quicksort"`` in the
  node's original row order — the order inside a group of tied values
  decides how ``cumsum(y)`` rounds at the group's boundary, and duplicated
  or per-key-constant augmentation columns make exactly tied gains
  common, so a presorted or stable order flips splits;
* growth is depth-first, left before right, with one ``rng.choice`` per
  non-terminal node — a node's feature draw depends on how many nodes
  drew before it in pre-order (the draw is also the known floor: ~7 µs
  of a ~45 µs node at two drawn features);
* every float expression of the impurity scans keeps its operation order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.rng import ensure_rng


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def check_max_features(value):
    """``None`` (all features), ``"sqrt"`` or an int >= 1; else ``ValueError``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        valid = value >= 1
    else:
        valid = value is None or (isinstance(value, str) and value == "sqrt")
    if not valid:
        raise ValueError(f'max_features must be None, "sqrt" or an int >= 1, got {value!r}')
    return value


def check_xy(x, y, target_dtype=None):
    """Validated training arrays: 2-D finite float ``x``, ``y`` of the same
    length (cast to ``target_dtype`` and finite when one is given)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    y = np.asarray(y, dtype=target_dtype)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains NaN/inf; impute before fitting")
    if target_dtype is not None and not np.all(np.isfinite(y)):
        raise ValueError("y contains NaN/inf; drop or impute the target")
    return x, y


@lru_cache(maxsize=4096)
def _threshold_picks(n_boundaries: int, n_thresholds: int) -> np.ndarray:
    """Which of ``n_boundaries`` value changes are kept as candidates."""
    picks = np.linspace(0, n_boundaries - 1, n_thresholds).astype(int)
    picks.setflags(write=False)
    return picks


class _BaseDecisionTree:
    """Shared depth-first builder for the classifier and the regressor."""

    #: dtype the target is cast to (and checked finite in); None keeps labels.
    _target_dtype = None

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
        self.max_features = check_max_features(max_features)
        self.n_thresholds = n_thresholds
        self.seed = seed
        self.feature_ = None
        self._n_features = None

    # -- subclass hooks -------------------------------------------------
    # -- fitting ---------------------------------------------------------
    def fit(self, x, y):
        x, y = check_xy(x, y, self._target_dtype)
        return self._grow(np.ascontiguousarray(x.T), y, np.arange(len(y)))

    def _grow(self, xT, y, rows):
        """Grow on trusted arrays: ``xT`` the contiguous ``(F, n)`` transpose
        of a ``check_xy`` matrix, ``rows`` the sample to fit in row order
        (a bootstrap repeats rows; nothing is copied for it)."""
        self._n_features = n_features = len(xT)
        if self.max_features is None:
            n_draw = n_features
        elif self.max_features == "sqrt":
            n_draw = max(1, int(np.sqrt(n_features)))
        else:
            n_draw = min(self.max_features, n_features)
        target = self._prepare_target(y, rows)
        counts = np.arange(1, len(rows) + 1, dtype=float)
        rng = ensure_rng(self.seed)
        min_leaf, n_thresholds = self.min_samples_leaf, self.n_thresholds
        feature, threshold, left, right, value = [], [], [], [], []
        # Pre-order: a left child is always its parent + 1, so only a right
        # child needs to be told whose ``right`` entry it is.
        stack = [(rows, 0, -1)]
        while stack:
            idx, depth, right_of = stack.pop()
            node, n = len(feature), len(idx)
            if right_of >= 0:
                right[right_of] = node
            splittable = depth < self.max_depth and n >= self.min_samples_split
            prediction, impurity, payload = self._node_stats(target, idx, splittable)
            value.append(prediction)
            best_gain, best = 1e-12, None
            if splittable and impurity != 0.0:
                if n_draw < n_features:
                    drawn = rng.choice(n_features, size=n_draw, replace=False)
                else:
                    drawn = range(n_features)
                for f in drawn:
                    column = xT[f][idx]
                    order = column.argsort(kind="quicksort")
                    sorted_col = column[order]
                    positions = (sorted_col[1:] != sorted_col[:-1]).nonzero()[0]
                    if positions.size > n_thresholds:
                        positions = positions[_threshold_picks(positions.size, n_thresholds)]
                    if min_leaf > 1:
                        positions = positions[
                            (positions + 1 >= min_leaf) & (n - (positions + 1) >= min_leaf)
                        ]
                    if positions.size == 0:
                        continue
                    impurities = self._child_impurity(
                        payload, order, positions, counts[positions], n
                    )
                    local_best = impurities.argmin()
                    gain = impurity - float(impurities[local_best])
                    if gain > best_gain:
                        best_gain = gain
                        pos = positions[local_best]
                        cut = float((sorted_col[pos] + sorted_col[pos + 1]) / 2.0)
                        best = (int(f), cut, column)
            if best is None:
                feature.append(-1)
                threshold.append(np.nan)
                left.append(node)
                right.append(node)
                continue
            goes_left = best[2] <= best[1]
            feature.append(best[0])
            threshold.append(best[1])
            left.append(node + 1)
            right.append(-1)
            stack.append((idx[~goes_left], depth + 1, node))
            stack.append((idx[goes_left], depth + 1, -1))
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold)
        self.left_ = np.array(left, dtype=np.intp)
        self.right_ = np.array(right, dtype=np.intp)
        self.value_ = np.array(value)
        return self

    # -- prediction -------------------------------------------------------
    def _check_fitted(self, what: str) -> None:
        if self.feature_ is None:
            raise RuntimeError(f"{what} called before fit")

    def predict(self, x) -> np.ndarray:
        self._check_fitted("predict")
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self._n_features:
            raise ValueError(
                f"x must have shape (n, {self._n_features}), got {x.shape}"
            )
        rows = np.arange(len(x))
        node = np.zeros(len(x), dtype=np.intp)
        while True:
            feature = self.feature_[node]
            if (feature < 0).all():
                return self.value_[node]
            # A row already on a leaf reads the last column against nan:
            # False, and a leaf's right is itself.
            goes_left = x[rows, feature] <= self.threshold_[node]
            node = np.where(goes_left, self.left_[node], self.right_[node])

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""
        self._check_fitted("depth")
        depth, level = -1, np.zeros(1, dtype=np.intp)
        while level.size:
            level = level[self.feature_[level] >= 0]
            level = np.concatenate((self.left_[level], self.right_[level]))
            depth += 1
        return depth


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier over integer-encoded labels."""

    def _prepare_target(self, y, rows):
        self.classes_ = np.unique(y[rows])
        return y

    def _node_stats(self, target, idx, need_impurity):
        values, codes, counts = np.unique(
            target[idx], return_inverse=True, return_counts=True
        )
        impurity = _gini(counts.astype(float)) if need_impurity else None
        return values[counts.argmax()], impurity, codes

    def _child_impurity(self, codes, order, positions, n_left, n):
        """Vectorized Gini scan via cumulative class counts."""
        one_hot = np.zeros((n, codes.max() + 1))
        one_hot[np.arange(n), codes[order]] = 1.0
        cum = np.cumsum(one_hot, axis=0)
        left = cum[positions]                      # (b, c)
        right = cum[-1] - left
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        return (n_left * gini_left + n_right * gini_right) / n

    def predict_proba(self, x) -> np.ndarray:
        """Hard class-membership probabilities (0/1 per leaf vote)."""
        preds = self.predict(x)
        out = np.zeros((len(preds), len(self.classes_)))
        out[np.arange(len(preds)), np.searchsorted(self.classes_, preds)] = 1.0
        return out


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor minimizing within-node variance."""

    _target_dtype = float

    def _prepare_target(self, y, rows):
        return np.stack((y, y**2))

    def _node_stats(self, target, idx, need_impurity):
        # Mean and variance in np.mean's / np.var's own two-pass order.
        if not need_impurity:
            return float(np.add.reduce(target[0][idx]) / len(idx)), None, None
        moments = target.take(idx, axis=1)
        y = moments[0]
        mean = np.add.reduce(y) / len(idx)
        deviation = y - mean
        np.multiply(deviation, deviation, out=deviation)
        return float(mean), float(np.add.reduce(deviation) / len(idx)), moments

    def _child_impurity(self, moments, order, positions, n_left, n):
        """Vectorized variance scan via cumulative sums of y and y²."""
        cum = moments.take(order, axis=1).cumsum(axis=1)  # rows: sum y, sum y²
        left = cum.take(positions, axis=1)
        right = cum[:, -1:] - left
        n_right = n - n_left
        left /= n_left
        right /= n_right
        var_left = np.maximum(0.0, left[1] - left[0] ** 2)
        var_right = np.maximum(0.0, right[1] - right[0] ** 2)
        return (n_left * var_left + n_right * var_right) / n
