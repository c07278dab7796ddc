"""Baseline searchers (§III-A, §VI): MW, Overlap, Uniform, iARDA and
Join-Everything.  The METAM ablations Eq / Nc / NcEq are searcher
registry entries (:func:`repro.api.registries.default_searchers`).

All baselines run through the same :class:`~repro.core.querying.QueryEngine`
and greedy monotone acceptance as METAM, so query counts are comparable.
"""

from repro.baselines.base import RankingSearcher, greedy_monotone_search
from repro.baselines.mw import MultiplicativeWeightsSearcher
from repro.baselines.overlap_ranking import OverlapSearcher
from repro.baselines.uniform import UniformSearcher
from repro.baselines.arda import IArdaSearcher
from repro.baselines.join_everything import JoinEverythingSearcher

__all__ = [
    "RankingSearcher",
    "greedy_monotone_search",
    "MultiplicativeWeightsSearcher",
    "OverlapSearcher",
    "UniformSearcher",
    "IArdaSearcher",
    "JoinEverythingSearcher",
]
