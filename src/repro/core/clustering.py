"""CLUSTER-PARTITION (Algorithm 2): ε-cover via greedy k-center.

Distance between augmentations is the Chebyshev (max-coordinate) distance
over profile vectors, per the paper's d(P1,P2) = max_i d(r1_i, r2_i).
Centers are added greedily (Gonzalez) until every augmentation lies within
ε of its center.

Distances are taken profile-major: over a contiguous ``(p, n)`` transpose,
``np.maximum.reduce(..., axis=0)`` folds ``p`` whole rows of ``n``
coordinate gaps instead of running a length-``p`` max per augmentation.
``abs`` and ``max`` round nothing and a NaN wins either way, so every
distance — and with it every center and assignment — is exactly the
row-major one (``tests/core/reference_clustering.py`` holds it).

The random first center is the partition's only random input, so the
algorithm is split in two: :func:`draw_first_center` consumes the one
``rng.integers(0, n)`` draw, and :func:`greedy_cover` is deterministic
from that center.  A caller that clusters one matrix many times may
therefore keep one cover per ``(ε, first center)``; a :class:`Clusters`
is read-only once built, so such a cover can be shared.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def chebyshev(a: np.ndarray, b: np.ndarray) -> float:
    """Max-coordinate distance between two profile vectors."""
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that raises on every write."""
    view = array.view()
    view.flags.writeable = False
    return view


class Clusters:
    """Result of CLUSTER-PARTITION over ``n`` augmentations (read-only).

    Attributes
    ----------
    assignment:
        ``assignment[i]`` is the cluster id of augmentation ``i``.
    centers:
        ``centers[c]`` is the index of cluster ``c``'s representative.
    """

    def __init__(self, vectors: np.ndarray, centers, assignment):
        # Read-only views: one partition may serve many searches at once
        # (see :func:`greedy_cover`), so none of them may write into it;
        # :meth:`dissolve` builds a new one instead.
        self.vectors = _read_only(vectors)
        self.centers = list(centers)
        self.assignment = _read_only(np.asarray(assignment, dtype=int))
        # Members grouped by cluster id, ascending within a cluster:
        # cluster c owns _order[_starts[c]:_starts[c + 1]].
        self._order = _read_only(np.argsort(self.assignment, kind="stable"))
        counts = np.bincount(self.assignment, minlength=len(self.centers))
        self._starts = _read_only(np.concatenate(([0], np.cumsum(counts))))

    @property
    def n_clusters(self) -> int:
        return len(self.centers)

    def member_array(self, cluster_id: int) -> np.ndarray:
        """Indices of a cluster's augmentations, ascending (a read-only
        view for array code; :meth:`members` is the list form)."""
        if not 0 <= cluster_id < len(self._starts) - 1:
            return self._order[:0]
        return self._order[self._starts[cluster_id]:self._starts[cluster_id + 1]]

    def members(self, cluster_id: int) -> list:
        """Indices of augmentations in a cluster."""
        return self.member_array(cluster_id).tolist()

    def cluster_of(self, index: int) -> int:
        return int(self.assignment[index])

    def distance(self, i: int, j: int) -> float:
        """Chebyshev distance between augmentations ``i`` and ``j``."""
        return chebyshev(self.vectors[i], self.vectors[j])

    def radius(self, cluster_id: int) -> float:
        """Max distance from a member to the cluster's center."""
        center = self.centers[cluster_id]
        return max(
            (self.distance(center, m) for m in self.members(cluster_id)),
            default=0.0,
        )

    def dissolve(self, cluster_id: int) -> "Clusters":
        """Split a cluster into singletons (the P2-violation fallback)."""
        new_centers = list(self.centers)
        assignment = self.assignment.copy()
        members = self.members(cluster_id)
        center_index = self.centers[cluster_id]
        for m in members:
            if m == center_index:
                continue
            assignment[m] = len(new_centers)
            new_centers.append(m)
        return Clusters(self.vectors, new_centers, assignment)


def cluster_partition(vectors: np.ndarray, epsilon: float, seed=None) -> Clusters:
    """Greedy k-center ε-cover of profile vectors (Algorithm 2)."""
    vectors, start = draw_first_center(vectors, epsilon, seed)
    return greedy_cover(vectors, epsilon, start)


def draw_first_center(vectors: np.ndarray, epsilon: float, seed=None):
    """Check CLUSTER-PARTITION's inputs and draw its first center.

    Returns ``(vectors as a float array, first center)``.  The draw is
    the partition's one use of ``seed``: exactly one
    ``rng.integers(0, n)``, made only once the inputs are valid.
    """
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
    return vectors, int(ensure_rng(seed).integers(0, len(vectors)))


def greedy_cover(vectors: np.ndarray, epsilon: float, start: int) -> Clusters:
    """Gonzalez's greedy k-center from first center ``start`` until every
    row lies within ``epsilon`` of its center — deterministic, over
    inputs :func:`draw_first_center` has checked.

    The loop allocates no array per center: gaps, distances and the
    closer-mask land in buffers made once, and the running distance is
    lowered in place.  ``np.minimum`` keeps exactly what
    ``np.where(new < dist, new, dist)`` would — every distance is finite
    or +inf, and equal ones are the same value.
    """
    n = len(vectors)
    columns = np.ascontiguousarray(vectors.T)
    points = np.ascontiguousarray(vectors)[:, :, None]  # points[i]: (p, 1)
    gaps = np.empty_like(columns)
    new_dist = np.empty(n)
    closer = np.empty(n, dtype=bool)

    centers = [start]
    np.subtract(columns, points[start], out=gaps)
    np.abs(gaps, out=gaps)
    # dist[i] = Chebyshev distance from i to its nearest center.
    dist = np.maximum.reduce(gaps, axis=0)
    assignment = np.zeros(n, dtype=int)

    while True:
        farthest = int(dist.argmax())
        if dist[farthest] <= epsilon:
            break
        centers.append(farthest)
        np.subtract(columns, points[farthest], out=gaps)
        np.abs(gaps, out=gaps)
        np.maximum.reduce(gaps, axis=0, out=new_dist)
        np.less(new_dist, dist, out=closer)
        np.putmask(assignment, closer, len(centers) - 1)
        np.minimum(dist, new_dist, out=dist)
    return Clusters(vectors, centers, assignment)


def singleton_clusters(vectors: np.ndarray) -> Clusters:
    """Every augmentation its own cluster — the *Nc* variant."""
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    return Clusters(vectors, list(range(n)), np.arange(n))
