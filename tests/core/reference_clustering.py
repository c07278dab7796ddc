"""Executable spec of ``repro.core.clustering.cluster_partition``: the
row-major greedy k-center it replaced, kept verbatim below this paragraph
(it still returns ``repro.core.clustering.Clusters``).
``test_clustering_diff.py`` holds the profile-major version to it center for
center; ``reference_metam.py`` clusters with it.  Nothing in ``src/``
imports it.

CLUSTER-PARTITION (Algorithm 2): ε-cover via greedy k-center.

Distance between augmentations is the Chebyshev (max-coordinate) distance
over profile vectors, per the paper's d(P1,P2) = max_i d(r1_i, r2_i).
Centers are added greedily (Gonzalez) until every augmentation lies within
ε of its center.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clusters
from repro.utils.rng import ensure_rng


def cluster_partition(vectors: np.ndarray, epsilon: float, seed=None) -> Clusters:
    """Greedy k-center ε-cover of profile vectors (Algorithm 2)."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or len(vectors) == 0:
        raise ValueError(f"vectors must be a non-empty 2-D array, got {vectors.shape}")
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        # A NaN distance never drops below epsilon: the loop below would
        # add a center per iteration without bound.
        row = int(finite.argmin())
        raise ValueError(f"vectors must be finite; row {row} is {vectors[row]}")
    rng = ensure_rng(seed)
    n = len(vectors)

    centers = [int(rng.integers(0, n))]
    # dist_to_center[i] = Chebyshev distance from i to its nearest center.
    dist = np.max(np.abs(vectors - vectors[centers[0]]), axis=1)
    assignment = np.zeros(n, dtype=int)

    while True:
        farthest = int(np.argmax(dist))
        if dist[farthest] <= epsilon:
            break
        centers.append(farthest)
        new_dist = np.max(np.abs(vectors - vectors[farthest]), axis=1)
        closer = new_dist < dist
        assignment[closer] = len(centers) - 1
        dist = np.where(closer, new_dist, dist)
    return Clusters(vectors, centers, assignment)
