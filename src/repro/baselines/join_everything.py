"""Join-Everything baseline: augment every candidate at once (§II-C)."""

from __future__ import annotations

from repro.baselines.base import RankingSearcher
from repro.core.querying import QueryBudgetExhausted
from repro.core.result import SearchResult


class JoinEverythingSearcher(RankingSearcher):
    """One query with *all* augmentations applied.

    Demonstrates the discover-then-augment failure mode: irrelevant
    attributes dilute the model and the single shot cannot adapt.
    """

    name = "join_everything"

    def run(self) -> SearchResult:
        base_utility = self.engine.base_utility()
        all_ids = frozenset(c.aug_id for c in self.candidates)
        try:
            utility = self.engine.utility(all_ids)
        except QueryBudgetExhausted:
            utility = base_utility
            all_ids = frozenset()
        return SearchResult(
            searcher=self.name,
            selected=sorted(all_ids),
            utility=utility,
            base_utility=base_utility,
            queries=self.engine.queries,
            trace=list(self.engine.trace),
        )
