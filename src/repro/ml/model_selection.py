"""Train/test splitting and cross-validation."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def train_test_split(x, y, test_fraction: float = 0.3, seed=None):
    """Shuffle and split into train/test; returns (x_tr, x_te, y_tr, y_te)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    rng = ensure_rng(seed)
    perm = rng.permutation(len(x))
    n_test = max(1, int(round(test_fraction * len(x))))
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    return x[train_idx], x[test_idx], y[train_idx], y[test_idx]


def group_train_test_split(x, y, groups, test_fraction: float = 0.3, seed=None):
    """Split so that no group appears in both train and test.

    Prevents key leakage when several rows share a join key: a random
    per-key column can otherwise memorize key → label associations that
    spuriously "generalize" to test rows with the same key.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    groups = np.asarray([str(g) for g in groups])
    if not (len(x) == len(y) == len(groups)):
        raise ValueError(
            f"length mismatch: {len(x)}, {len(y)}, {len(groups)}"
        )
    rng = ensure_rng(seed)
    unique = np.unique(groups)
    perm = rng.permutation(len(unique))
    n_test_groups = max(1, int(round(test_fraction * len(unique))))
    test_groups = set(unique[perm[:n_test_groups]].tolist())
    test_mask = np.array([g in test_groups for g in groups])
    if test_mask.all() or not test_mask.any():
        raise ValueError("group split produced an empty train or test set")
    return x[~test_mask], x[test_mask], y[~test_mask], y[test_mask]
