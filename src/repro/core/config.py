"""Configuration for the METAM search (paper defaults)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_in_choices


@dataclass
class MetamConfig:
    """Knobs of Algorithm 1.

    Attributes
    ----------
    theta:
        Target utility θ.  The search stops as soon as the (monotone)
        solution reaches it.  1.0 makes the search anytime (§IV: run until
        the space is explored or the budget ends).
    epsilon:
        Cluster radius ε of CLUSTER-PARTITION (paper default 0.05).
    tau:
        Queries per sequential round before committing the best candidate.
        ``None`` = number of clusters (paper default τ = |C|).
    query_budget:
        Hard cap on utility-function queries (CHECK-STOP-CRITERION).
    max_group_size:
        Upper bound on the combinatorial group size ``t``.
    groups_per_size:
        Group queries issued at size ``t`` before ``t`` is incremented
        (``None`` = number of clusters).
    group_interval:
        One group query is interleaved every ``group_interval`` sequential
        queries (1 = the strict 1:1 alternation of Algorithm 1; the
        default 2 spends less of a small budget on exploration).
    use_clustering:
        False reproduces the *Nc* variant (every augmentation its own
        cluster).
    use_thompson:
        False reproduces the *Eq* variant (uniform cluster sampling).
    homogeneity:
        ``"lazy"`` validates property P2 from utilities the search already
        paid for; ``"active"`` spends log|C| queries per cluster up front
        (the paper's procedure); ``"off"`` trusts the clusters.
    run_minimality:
        Whether to post-process the solution with IDENTIFY-MINIMAL.
    seed:
        Seed for all stochastic choices (cluster init, Thompson sampling).
    """

    theta: float = 1.0
    epsilon: float = 0.05
    tau: int = None
    query_budget: int = 1000
    max_group_size: int = 5
    groups_per_size: int = None
    group_interval: int = 2
    use_clustering: bool = True
    use_thompson: bool = True
    homogeneity: str = "lazy"
    run_minimality: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(
                f"epsilon must be finite and > 0, got {self.epsilon}"
            )
        if self.tau is not None and self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.query_budget < 1:
            raise ValueError(f"query_budget must be >= 1, got {self.query_budget}")
        if self.max_group_size < 1:
            raise ValueError(
                f"max_group_size must be >= 1, got {self.max_group_size}"
            )
        if self.groups_per_size is not None and self.groups_per_size < 1:
            raise ValueError(
                f"groups_per_size must be >= 1, got {self.groups_per_size}"
            )
        if self.group_interval < 1:
            raise ValueError(
                f"group_interval must be >= 1, got {self.group_interval}"
            )
        check_in_choices(self.homogeneity, "homogeneity", {"lazy", "active", "off"})
