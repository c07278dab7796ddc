"""Multiplicative-weights baseline (§III-A "prediction from expert advice").

Each data profile is an expert that ranks candidates by its profile value.
At every step the randomized MW rule samples an expert proportionally to
its weight, queries that expert's best unqueried candidate, and updates
every expert multiplicatively according to how highly it ranked the
queried candidate versus the observed outcome ([28]).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import RankingSearcher
from repro.core.monotonic import MonotoneState
from repro.core.querying import QueryBudgetExhausted
from repro.core.result import SearchResult
from repro.utils.rng import ensure_rng


class MultiplicativeWeightsSearcher(RankingSearcher):
    """Randomized MW over profiles-as-experts."""

    name = "mw"

    def __init__(self, *args, eta: float = 0.3, **kwargs):
        super().__init__(*args, **kwargs)
        self.eta = eta
        vectors = [c.profile_vector for c in self.candidates]
        if any(v is None for v in vectors):
            raise ValueError("MW requires profiled candidates")
        self._profiles = np.vstack(vectors)
        # rank_score[p][i] in [0,1]: 1 = candidate i is expert p's favourite.
        n = len(self.candidates)
        orders = np.argsort(-self._profiles, axis=0)
        self._rank_score = np.empty_like(self._profiles.T)
        for p in range(self._profiles.shape[1]):
            for position, i in enumerate(orders[:, p]):
                self._rank_score[p, i] = 1.0 - position / max(1, n - 1)

    def run(self) -> SearchResult:
        rng = ensure_rng(self.seed)
        n_experts = self._profiles.shape[1]
        weights = np.ones(n_experts)
        queried = set()
        ids = [c.aug_id for c in self.candidates]

        try:
            state = MonotoneState(self.engine)
            while state.utility < self.theta and len(queried) < len(ids):
                probabilities = weights / weights.sum()
                expert = int(rng.choice(n_experts, p=probabilities))
                # The expert's best unqueried candidate.
                order = np.argsort(-self._profiles[:, expert])
                pick = next(
                    (int(i) for i in order if int(i) not in queried), None
                )
                if pick is None:
                    break
                queried.add(pick)
                before = state.utility
                accepted, value = state.try_add(ids[pick])
                gain = value - before
                # Experts that ranked the pick high win when it helped,
                # lose when it did not (and vice versa).
                signal = 1.0 if gain > 0 else -1.0
                adjustment = self.eta * signal * (self._rank_score[:, pick] - 0.5)
                weights = weights * np.exp(adjustment)
        except QueryBudgetExhausted:
            pass

        return SearchResult(
            searcher=self.name,
            selected=list(state.selected),
            utility=state.utility,
            base_utility=self.engine.base_utility(),
            queries=self.engine.queries,
            trace=list(self.engine.trace),
            extras={"expert_weights": (weights / weights.sum()).tolist()},
        )
