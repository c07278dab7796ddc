"""k-means clustering with k-means++ initialization."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


class KMeans:
    """Lloyd's algorithm with k-means++ seeding and multi-restart.

    ``n_init`` independent initializations are run and the solution with
    the lowest inertia kept, which avoids the local optima single-shot
    Lloyd is prone to.
    """

    def __init__(self, n_clusters: int = 3, n_iter: int = 50, n_init: int = 1, seed=None):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self.n_clusters = n_clusters
        self.n_iter = n_iter
        self.n_init = n_init
        self.seed = seed
        self.centers_ = None
        self.labels_ = None
        self.inertia_ = None

    def _init_centers(self, x, rng):
        """k-means++ seeding."""
        n = len(x)
        centers = [x[int(rng.integers(0, n))]]
        while len(centers) < self.n_clusters:
            dists = np.min(
                [np.sum((x - c) ** 2, axis=1) for c in centers], axis=0
            )
            total = dists.sum()
            if total == 0:
                centers.append(x[int(rng.integers(0, n))])
                continue
            probs = dists / total
            centers.append(x[int(rng.choice(n, p=probs))])
        return np.array(centers)

    def fit(self, x):
        x = np.asarray(x, dtype=float)
        if len(x) == 0:
            raise ValueError("cannot cluster an empty dataset")
        if len(x) < self.n_clusters:
            raise ValueError(
                f"n_clusters={self.n_clusters} exceeds {len(x)} samples"
            )
        rng = ensure_rng(self.seed)
        best = None
        for _restart in range(self.n_init):
            self._fit_once(x, rng)
            if best is None or self.inertia_ < best[2]:
                best = (self.centers_, self.labels_, self.inertia_)
        self.centers_, self.labels_, self.inertia_ = best
        return self

    def _fit_once(self, x, rng):
        centers = self._init_centers(x, rng)
        labels = np.zeros(len(x), dtype=int)
        for iteration in range(self.n_iter):
            dists = np.stack([np.sum((x - c) ** 2, axis=1) for c in centers])
            new_labels = np.argmin(dists, axis=0)
            if iteration > 0 and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for i in range(self.n_clusters):
                members = x[labels == i]
                if len(members):
                    centers[i] = members.mean(axis=0)
        self.centers_ = centers
        self.labels_ = labels
        dists = np.stack([np.sum((x - c) ** 2, axis=1) for c in centers])
        self.inertia_ = float(np.sum(np.min(dists, axis=0)))
