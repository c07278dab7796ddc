"""Statistical primitives shared by profiles, tasks and causal inference.

Implemented on numpy/scipy only.  All functions are defensive about
degenerate inputs (constant columns, tiny samples, NaNs) because profile
computation runs over noisy open-data-style tables where those cases are
the norm, not the exception.
"""

from __future__ import annotations

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
    """Pearson correlation in [-1, 1]; 0.0 for degenerate inputs."""
    x, y = _clean_pair(x, y)
    if x.size < 2:
        return 0.0
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
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
    joint = np.zeros((xb.max() + 1, yb.max() + 1), dtype=float)
    np.add.at(joint, (xb, yb), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (px * py), 1.0)
        mi = float(np.sum(np.where(joint > 0, joint * np.log(ratio), 0.0)))
    return max(0.0, mi)


def _equal_frequency_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """Assign each value to an equal-frequency bin index."""
    if np.unique(values).size <= bins:
        # Already discrete enough: map each distinct value to its own bin.
        _, inverse = np.unique(values, return_inverse=True)
        return inverse
    quantiles = np.quantile(values, np.linspace(0, 1, bins + 1)[1:-1])
    return np.searchsorted(quantiles, values, side="right")


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
