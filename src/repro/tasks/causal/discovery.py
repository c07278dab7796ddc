"""Causal dependence screening (causal-learn substitute).

``dependent_columns`` is the primitive the what-if/how-to tasks use:
which columns stay dependent on a pivot variable after conditioning
attempts with order-≤ ``max_cond`` Fisher-z independence tests.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.tasks.causal.citest import fisher_z_independence


def dependent_columns(
    data: np.ndarray,
    pivot: int,
    candidates,
    cond_pool=(),
    alpha: float = 0.05,
    max_cond: int = 1,
) -> set:
    """Columns among ``candidates`` that remain dependent on ``pivot``.

    A candidate survives when no conditioning set drawn from ``cond_pool``
    (size ≤ ``max_cond``) makes it independent of the pivot — the causal
    relevance test behind what-if/how-to analysis.
    """
    out = set()
    pool = [c for c in cond_pool if c != pivot]
    for candidate in candidates:
        if candidate == pivot:
            continue
        independent, _p = fisher_z_independence(
            data, pivot, candidate, cond=(), alpha=alpha
        )
        if independent:
            continue
        separated = False
        usable = [c for c in pool if c != candidate]
        for order in range(1, max_cond + 1):
            for cond in combinations(usable, order):
                independent, _p = fisher_z_independence(
                    data, pivot, candidate, cond=cond, alpha=alpha
                )
                if independent:
                    separated = True
                    break
            if separated:
                break
        if not separated:
            out.add(candidate)
    return out
