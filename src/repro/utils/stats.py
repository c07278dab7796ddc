"""Statistical primitives shared by profiles, tasks and causal inference.

Implemented on numpy/scipy only.  All functions are defensive about
degenerate inputs (constant columns, tiny samples, NaNs) because profile
computation runs over noisy open-data-style tables where those cases are
the norm, not the exception.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special


def _clean_pair(x, y):
    """Drop rows where either value is NaN; return float arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = ~(np.isnan(x) | np.isnan(y))
    return x[mask], y[mask]


def pearson(x, y) -> float:
    """Pearson correlation in [-1, 1]; 0.0 for degenerate inputs.

    Rows where either value is NaN or ±inf are dropped: one infinite
    cell would otherwise turn every moment into NaN.  The moments are
    ``np.add.reduce`` in ``np.mean``/``np.std``'s own operation order
    (sum, then divide by the count; the deviations squared in place of
    a second pass), so the result is theirs bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    if not keep.all():
        x, y = x[keep], y[keep]
    n = x.size
    if n < 2:
        return 0.0
    dx = x - np.add.reduce(x) / n
    dy = y - np.add.reduce(y) / n
    sx = math.sqrt(np.add.reduce(dx * dx) / n)
    sy = math.sqrt(np.add.reduce(dy * dy) / n)
    if sx == 0.0 or sy == 0.0:
        return 0.0
    r = float(np.add.reduce(dx * dy) / n / (sx * sy))
    if math.isnan(r):
        # The moments overflowed (or their product underflowed to 0/0).
        return 0.0
    return max(-1.0, min(1.0, r))


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties handled, like scipy's rankdata."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = avg_rank
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation; 0.0 for degenerate inputs."""
    x, y = _clean_pair(x, y)
    if x.size < 2:
        return 0.0
    return pearson(_rankdata(x), _rankdata(y))


def entropy_discrete(labels) -> float:
    """Shannon entropy (nats) of a discrete label sequence."""
    values, counts = np.unique(np.asarray(labels), return_counts=True)
    if counts.size <= 1:
        return 0.0
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p)))


def mutual_information(x, y, bins: int = 8, x_bins_cache: dict = None) -> float:
    """Histogram mutual information estimate (nats), >= 0.

    Continuous inputs are discretized into equal-frequency bins, which is
    robust to skewed open-data distributions.  Returns 0 for degenerate
    inputs.  A caller scoring many ``y`` against one ``x`` can pass a
    dict as ``x_bins_cache``: x's bins depend only on which rows survive
    the NaN filter, so calls dropping the same rows share them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = ~(np.isnan(x) | np.isnan(y))
    x, y = x[mask], y[mask]
    if x.size < 4:
        return 0.0
    if x_bins_cache is None:
        xb = _equal_frequency_bins(x, bins)
    else:
        key = (bins, mask.tobytes())
        xb = x_bins_cache.get(key)
        if xb is None:
            xb = x_bins_cache[key] = _equal_frequency_bins(x, bins)
    yb = _equal_frequency_bins(y, bins)
    ny = int(yb.max()) + 1
    cells = np.bincount(xb * ny + yb, minlength=(int(xb.max()) + 1) * ny)
    joint = cells.reshape(-1, ny).astype(float)
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (px * py), 1.0)
        mi = float(np.sum(np.where(joint > 0, joint * np.log(ratio), 0.0)))
    return max(0.0, mi)


def _equal_frequency_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """Assign each (NaN-free) value to an equal-frequency bin index.

    A column with at most ``bins`` distinct values keeps one bin per
    value (its rank among the distinct values, as ``np.unique``'s
    inverse).  Otherwise the bin edges are ``np.quantile(values,
    np.linspace(0, 1, bins + 1)[1:-1])`` — numpy's default ``linear``
    method, pinned bit for bit by ``tests/profiles/test_profile_diff.py``
    — and a value's bin is the number of edges at or below it.  One sort
    serves the distinct count, the codes and the quantiles.
    """
    ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    if distinct.size <= bins:
        # Already discrete enough: map each distinct value to its own bin.
        return np.searchsorted(distinct, values)
    prev, nxt, gamma, rest, upper = _linear_quantile_plan(values.size, bins)
    below = ordered[prev]
    above = ordered[nxt]
    # numpy's _lerp: from the lower neighbour, or back from the upper
    # one when gamma >= 0.5.
    diff = above - below
    edges = below + diff * gamma
    np.subtract(above, diff * rest, out=edges, where=upper)
    return np.searchsorted(edges, values, side="right")


@functools.lru_cache(maxsize=64)
def _linear_quantile_plan(n: int, bins: int) -> tuple:
    """Neighbour indices and weights of ``np.quantile``'s ``linear``
    method for the inner ``bins - 1`` equal-frequency edges of ``n > bins``
    sorted values: virtual index ``(n - 1) q``, its floor and the next
    index, ``gamma`` the fractional part, ``1 - gamma`` and the ``gamma >=
    0.5`` mask.  Every ``q <= 1 - 1/bins`` puts the virtual index at most
    ``n - 2`` (up to rounding), so numpy's clamp to the last index never
    applies.  Cached read-only: they depend on the sizes only."""
    virtual = (n - 1) * np.linspace(0, 1, bins + 1)[1:-1]
    prev = np.floor(virtual).astype(np.intp)
    gamma = virtual - prev
    plan = (prev, prev + 1, gamma, 1 - gamma, gamma >= 0.5)
    for array in plan:
        array.flags.writeable = False
    return plan


def partial_correlation(data: np.ndarray, i: int, j: int, cond: tuple = ()) -> float:
    """Partial correlation of columns ``i`` and ``j`` given columns ``cond``.

    Computed by regressing out the conditioning set via least squares.
    ``data`` is an (n_samples, n_vars) float matrix.
    """
    x = data[:, i].astype(float)
    y = data[:, j].astype(float)
    if cond:
        z = data[:, list(cond)].astype(float)
        z = np.column_stack([np.ones(len(z)), z])
        # Residualize both variables on the conditioning set.
        beta_x, *_ = np.linalg.lstsq(z, x, rcond=None)
        beta_y, *_ = np.linalg.lstsq(z, y, rcond=None)
        x = x - z @ beta_x
        y = y - z @ beta_y
    return pearson(x, y)


def fisher_z_pvalue(r: float, n: int, n_cond: int = 0) -> float:
    """Two-sided p-value for H0: partial correlation == 0 via Fisher's z.

    ``n`` is the sample size and ``n_cond`` the size of the conditioning set.
    """
    dof = n - n_cond - 3
    if dof <= 0:
        return 1.0
    r = max(-0.999999, min(0.999999, r))
    z = 0.5 * math.log((1 + r) / (1 - r)) * math.sqrt(dof)
    return float(2.0 * (1.0 - _std_normal_cdf(abs(z))))


def _std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + float(special.erf(z / math.sqrt(2.0))))
