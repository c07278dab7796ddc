"""METAM core — the paper's primary contribution (Algorithms 1 and 2).

Public entry point::

    from repro.core import Metam, MetamConfig
    result = Metam(candidates, scenario.base, scenario.corpus,
                   scenario.task, MetamConfig(theta=0.8)).run()

All searchers (METAM and the baselines in :mod:`repro.baselines`) share
the :class:`~repro.core.querying.QueryEngine`, so query counts and
utility-vs-queries traces are directly comparable — the axes of the
paper's figures.
"""

from repro.core.config import MetamConfig
from repro.core.querying import QueryEngine, QueryBudgetExhausted
from repro.core.clustering import Clusters, cluster_partition, chebyshev
from repro.core.quality import QualityScorer
from repro.core.bandit import ThompsonGroupSelector
from repro.core.monotonic import MonotoneState
from repro.core.minimality import identify_minimal
from repro.core.homogeneity import check_cluster_homogeneity
from repro.core.result import SearchResult
from repro.core.metam import Metam
from repro.core.plotting import render_traces
from repro.core.serialization import save_results

__all__ = [
    "render_traces",
    "save_results",
    "MetamConfig",
    "QueryEngine",
    "QueryBudgetExhausted",
    "Clusters",
    "cluster_partition",
    "chebyshev",
    "QualityScorer",
    "ThompsonGroupSelector",
    "MonotoneState",
    "identify_minimal",
    "check_cluster_homogeneity",
    "SearchResult",
    "Metam",
]
