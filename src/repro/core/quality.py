"""Quality-score estimation (§IV-B) with online profile-importance weights.

The quality score of an augmentation is the sum of:

* a **profile-based score** — the weighted average of its profile values,
  where weights are the estimated importance of each profile for
  predicting utility gains (a ridge regression refit as queries arrive —
  the closed-form estimator Lemma 4 analyzes); and
* a **utility-based score** — its observed gain if queried, otherwise the
  best clustermate's gain attenuated by ``1 − d(P, P')``.

Both scores live in length-``n`` arrays.  A query outcome touches one
cluster, so only that cluster's utility scores are recomputed; the
profile scores change only when the weights are refit.  Choosing the
next query is then one masked arg-max.

The refit is ``RidgeRegression.fit`` (``tests/core/reference_quality.py``
calls it) without the wrappers: the same operands in the same operation
order — ``np.var``'s and ``np.mean``'s ``np.add.reduce`` then divide, the
centred gram plus ``alpha * I``, one ``np.linalg.solve`` — over fit arrays
kept in first-observation order.  A last-ulp change to a weight changes
which candidate is queried next, so none of it may be reassociated.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from repro.core.clustering import Clusters
from repro.utils.validation import check_non_negative


class QualityScorer:
    """Maintains quality scores over a fixed candidate set."""

    def __init__(
        self,
        profile_matrix: np.ndarray,
        clusters: Clusters,
        ridge_alpha: float = 1.0,
        min_fit_samples: int = 4,
    ):
        self.profiles = np.asarray(profile_matrix, dtype=float)
        if self.profiles.ndim != 2:
            raise ValueError(
                f"profile_matrix must be 2-D, got shape {self.profiles.shape}"
            )
        self.clusters = clusters
        self.ridge_alpha = check_non_negative(ridge_alpha, "ridge_alpha")
        self.min_fit_samples = min_fit_samples
        n, n_profiles = self.profiles.shape
        self._columns = np.ascontiguousarray(self.profiles.T)  # profile-major
        self._alpha_eye = ridge_alpha * np.eye(n_profiles)
        # The ridge fit's rows: row r is the r-th distinct index observed
        # and its latest gain.
        self._row_of = {}
        self._fit_rows = np.zeros(n, dtype=np.intp)
        self._fit_y = np.zeros(n)
        self._observed = np.zeros(n, dtype=bool)
        self._gain = np.zeros(n)
        self._utility = np.zeros(n)
        self._propagation_disabled = set()  # cluster ids with P2 violated
        # Equal weights before any evidence (§IV-B).
        self.weights = np.full(n_profiles, 1.0 / max(1, n_profiles))

    # ------------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Profile-importance weights (non-negative, summing to one)."""
        return self._weights

    @weights.setter
    def weights(self, weights) -> None:
        self._weights = weights
        # One dot product per row, stacked: the plain matrix-vector product
        # rounds differently from ``profiles[i] @ weights`` in the last ulp.
        self._profile_score = np.matmul(self.profiles[:, None, :], weights)[:, 0]
        self._quality = self._profile_score + self._utility

    @property
    def observed_gains(self):
        """Read-only ``{index: latest gain}`` in first-observation order."""
        k = len(self._row_of)
        return MappingProxyType(
            dict(zip(self._fit_rows[:k].tolist(), self._fit_y[:k].tolist(), strict=True))
        )

    @property
    def qualities(self) -> np.ndarray:
        """JPSCORE of every candidate: ``qualities[i] == quality(i)``."""
        return self._quality

    def profile_score(self, index: int) -> float:
        """Weighted average of profile values (the prior)."""
        return float(self._profile_score[index])

    def utility_score(self, index: int) -> float:
        """Observed gain, or attenuated gain propagated within the cluster."""
        return float(self._utility[index])

    def quality(self, index: int) -> float:
        """JPSCORE: profile-based + utility-based score."""
        return float(self._quality[index])

    def observed_count(self, cluster_id: int) -> int:
        """How many members of a cluster have an observed gain."""
        return int(self._observed[self.clusters.member_array(cluster_id)].sum())

    # ------------------------------------------------------------------
    def update(self, index: int, gain: float) -> None:
        """UPDATE-QUALITY-SCORES: record a query outcome, refit weights."""
        self.observe(index, gain)
        self._refit_weights()

    def observe(self, index: int, gain: float) -> None:
        """Record a query outcome without refitting the weights."""
        # A re-queried index keeps its place in the fit order and has its
        # gain overwritten — possibly downward, which is why the cluster is
        # rescored from its observed members, never max-updated.
        row = self._row_of.get(index)
        if row is None:
            row = self._row_of[index] = len(self._row_of)
            self._fit_rows[row] = index
        self._fit_y[row] = self._gain[index] = float(gain)
        self._observed[index] = True
        self._rescore_cluster(self.clusters.cluster_of(index))

    def disable_propagation(self, cluster_id: int) -> None:
        """Stop propagating utility within a non-homogeneous cluster."""
        self._propagation_disabled.add(cluster_id)
        self._rescore_cluster(cluster_id)

    def _rescore_cluster(self, cluster_id: int) -> None:
        """Utility scores of one cluster from its observed members' gains."""
        members = self.clusters.member_array(cluster_id)
        seen = members[self._observed[members]]
        if cluster_id in self._propagation_disabled or not seen.size:
            best = 0.0
        else:
            # Chebyshev distances reduced over the leading profile axis
            # (see ``clustering``: the same values as a per-pair max).
            columns = self._columns
            distance = np.maximum.reduce(
                np.abs(columns[:, members, None] - columns[:, None, seen]), axis=0
            )
            with np.errstate(invalid="ignore"):  # 0 * inf is a skipped NaN
                attenuated = (1.0 - distance) * self._gain[seen]
            # fmax skips NaN products and ``> 0`` keeps the floor at +0.0,
            # as the scalar ``max(0.0, ...)`` chain does.
            best = np.fmax.reduce(attenuated, axis=1)
            best = np.where(best > 0.0, best, 0.0)
        self._utility[members] = best
        self._utility[seen] = self._gain[seen]
        self._quality[members] = self._profile_score[members] + self._utility[members]

    def _refit_weights(self) -> None:
        """Profile importance = ridge coefficients of gain ~ profiles.

        Negative coefficients are floored at zero: a profile anti-correlated
        with gains is simply uninformative for ranking (its low values do
        not make an augmentation *better*).
        """
        k = len(self._row_of)
        if k < self.min_fit_samples:
            return
        y = self._fit_y[:k]
        # np.var(y) and y.mean(): one pairwise sum, then a divide.
        y_mean = np.add.reduce(y) / k
        yc = y - y_mean
        if np.add.reduce(yc * yc) / k < 1e-12:
            return
        x = self.profiles[self._fit_rows[:k]]
        xc = x - np.add.reduce(x, axis=0) / k  # x.mean(axis=0)
        coef = np.linalg.solve(xc.T @ xc + self._alpha_eye, xc.T @ yc)
        raw = np.maximum(coef, 0.0)
        total = np.add.reduce(raw)  # raw.sum()
        if total <= 0:
            # No profile explains the gains; keep the uniform prior.
            n = len(self.weights)
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = raw / total

    # ------------------------------------------------------------------
    def best_unqueried(self, excluded_indices=(), excluded_clusters=()) -> int:
        """Arg-max quality among candidates not excluded; None if empty.

        ``excluded_indices`` are augmentations already in the solution (or
        otherwise off-limits); ``excluded_clusters`` implements the
        one-query-per-cluster-per-round diversification.
        """
        excluded = np.zeros(len(self.profiles), dtype=bool)
        excluded[list(excluded_indices)] = True
        for cluster_id in excluded_clusters:
            excluded[self.clusters.member_array(cluster_id)] = True
        return self.best_where(~excluded)

    def best_where(self, eligible: np.ndarray) -> int:
        """Arg-max quality over a boolean mask (lowest index on ties);
        None when nothing eligible has a quality above ``-inf``."""
        quality = self._quality
        masked = np.where(eligible & ~np.isnan(quality), quality, -np.inf)
        if not masked.size:
            return None
        best = int(masked.argmax())
        return None if masked[best] == -np.inf else best
