"""Executable spec of ``repro.core.quality``: the per-candidate Python scorer
it replaced, kept verbatim below this paragraph.  ``test_search_diff.py``
holds the array-native scorer to it bit for bit; nothing in ``src/`` imports
it.

Quality-score estimation (§IV-B) with online profile-importance weights.

The quality score of an augmentation is the sum of:

* a **profile-based score** — the weighted average of its profile values,
  where weights are the estimated importance of each profile for
  predicting utility gains (a ridge regression refit as queries arrive —
  the closed-form estimator Lemma 4 analyzes); and
* a **utility-based score** — its observed gain if queried, otherwise the
  best clustermate's gain attenuated by ``1 − d(P, P')``.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clusters
from repro.ml.linear import RidgeRegression


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
        self.ridge_alpha = ridge_alpha
        self.min_fit_samples = min_fit_samples
        n_profiles = self.profiles.shape[1]
        # Equal weights before any evidence (§IV-B).
        self.weights = np.full(n_profiles, 1.0 / max(1, n_profiles))
        self.observed_gains = {}
        self._propagation_disabled = set()  # cluster ids with P2 violated

    # ------------------------------------------------------------------
    def profile_score(self, index: int) -> float:
        """Weighted average of profile values (the prior)."""
        return float(self.profiles[index] @ self.weights)

    def utility_score(self, index: int) -> float:
        """Observed gain, or attenuated gain propagated within the cluster."""
        if index in self.observed_gains:
            return self.observed_gains[index]
        cluster_id = self.clusters.cluster_of(index)
        if cluster_id in self._propagation_disabled:
            return 0.0
        best = 0.0
        for member in self.clusters.members(cluster_id):
            if member in self.observed_gains:
                attenuation = 1.0 - self.clusters.distance(index, member)
                best = max(best, attenuation * self.observed_gains[member])
        return best

    def quality(self, index: int) -> float:
        """JPSCORE: profile-based + utility-based score."""
        return self.profile_score(index) + self.utility_score(index)

    # ------------------------------------------------------------------
    def update(self, index: int, gain: float) -> None:
        """UPDATE-QUALITY-SCORES: record a query outcome, refit weights."""
        self.observed_gains[index] = float(gain)
        self._refit_weights()

    def disable_propagation(self, cluster_id: int) -> None:
        """Stop propagating utility within a non-homogeneous cluster."""
        self._propagation_disabled.add(cluster_id)

    def _refit_weights(self) -> None:
        """Profile importance = ridge coefficients of gain ~ profiles.

        Negative coefficients are floored at zero: a profile anti-correlated
        with gains is simply uninformative for ranking (its low values do
        not make an augmentation *better*).
        """
        if len(self.observed_gains) < self.min_fit_samples:
            return
        indices = list(self.observed_gains)
        x = self.profiles[indices]
        y = np.array([self.observed_gains[i] for i in indices])
        if float(np.var(y)) < 1e-12:
            return
        model = RidgeRegression(alpha=self.ridge_alpha).fit(x, y)
        raw = np.maximum(model.coef_, 0.0)
        total = raw.sum()
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
        excluded_indices = set(excluded_indices)
        excluded_clusters = set(excluded_clusters)
        best_index = None
        best_quality = -np.inf
        for i in range(len(self.profiles)):
            if i in excluded_indices:
                continue
            if self.clusters.cluster_of(i) in excluded_clusters:
                continue
            q = self.quality(i)
            if q > best_quality:
                best_quality = q
                best_index = i
        return best_index
