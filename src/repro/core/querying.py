"""Query accounting: the shared oracle every searcher talks to.

A *query* (Definition 5's "query" notion) is one evaluation of the task's
utility on an augmented table.  The engine memoizes by augmentation set, so
re-evaluating a known set is free — exactly how the paper counts queries —
and it records the best-utility-so-far trace that Figures 3-5/7 plot.
"""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.obs.logcfg import get_logger

_log = get_logger(__name__)


class QueryBudgetExhausted(Exception):
    """Raised when the engine's query budget is spent."""


class QueryEngine:
    """Evaluates task utility on ``Din`` + a set of augmentations.

    Parameters
    ----------
    task:
        The downstream task (black box).
    base:
        The input dataset ``Din``.
    corpus:
        Repository tables by name (needed to materialize augmentations).
    candidates:
        Iterable of :class:`~repro.discovery.candidates.Candidate`; the
        engine indexes them by ``aug_id``.
    budget:
        Optional hard query cap; exceeding it raises
        :class:`QueryBudgetExhausted`.

    Hooks
    -----
    Four optional callables, all ``None`` by default (unset, the engine
    behaves exactly as before).  The serving engine sets them once per
    run and refuses a searcher whose query engine arrives with any set:

    ``pre_query()``
        Called at every :meth:`utility` entry (cache hits included) —
        the cooperative-cancellation point; any exception it raises
        aborts the search.
    ``on_query(query_index, value, best_so_far)``
        Called after each *charged* query, mirroring the trace.
    ``on_accept(aug_id, utility, n_selected)``
        Called by :class:`~repro.core.monotonic.MonotoneState` whenever
        the certified solution grows.
    ``evaluate(aug_ids, compute)``
        Called on each *charged* query in place of the task fit.
        ``compute()`` runs the fit; the hook returns its value, or the
        value an earlier fit of the same table returned.  The serving
        engine's utility memo does the latter, for ``u(Din)`` and for
        every augmented set drawn from one of its prepared candidate
        sets, across all the runs it serves.  The query is charged
        either way, so budgets, traces and ``on_query`` see a fresh fit.
    """

    pre_query = None
    on_query = None
    on_accept = None
    evaluate = None

    def __init__(self, task, base: Table, corpus: dict, candidates, budget=None):
        self.task = task
        self.base = base
        self.corpus = corpus
        self.budget = budget
        self._by_id = {c.aug_id: c for c in candidates}
        self._cache = {}
        self.queries = 0
        self.trace = []
        self._best = 0.0

    # ------------------------------------------------------------------
    @property
    def candidate_ids(self) -> list:
        return list(self._by_id)

    def candidate(self, aug_id: str):
        if aug_id not in self._by_id:
            raise KeyError(f"unknown augmentation {aug_id!r}")
        return self._by_id[aug_id]

    def remaining_budget(self):
        if self.budget is None:
            return None
        return max(0, self.budget - self.queries)

    # ------------------------------------------------------------------
    def _build_table(self, aug_ids: frozenset) -> Table:
        table = self.base
        for aug_id in sorted(aug_ids):
            candidate = self.candidate(aug_id)
            table = candidate.aug.apply(table, self.base, self.corpus)
        return table

    def utility(self, aug_ids=()) -> float:
        """Utility of ``Din`` augmented with ``aug_ids`` (cached)."""
        if self.pre_query is not None:
            self.pre_query()
        key = frozenset(aug_ids)
        if key in self._cache:
            return self._cache[key]
        if self.budget is not None and self.queries >= self.budget:
            raise QueryBudgetExhausted(
                f"query budget of {self.budget} exhausted"
            )
        if self.evaluate is None:
            value = float(self.task.utility(self._build_table(key)))
        else:
            value = float(
                self.evaluate(
                    key, lambda: self.task.utility(self._build_table(key))
                )
            )
        self.queries += 1
        self._cache[key] = value
        self._best = max(self._best, value)
        self.trace.append((self.queries, self._best))
        # Charged queries only (a cache hit returns above): the line is
        # per-model-fit, so its cost is noise even at debug level.
        _log.debug(
            "utility query",
            query=self.queries,
            set_size=len(key),
            utility=value,
            best=self._best,
        )
        if self.on_query is not None:
            self.on_query(self.queries, value, self._best)
        return value

    def cached_utility(self, aug_ids):
        """Memoized utility of an augmentation set, or ``None`` if that
        set was never evaluated.  Never spends a query."""
        return self._cache.get(frozenset(aug_ids))

    def base_utility(self) -> float:
        """Utility of the unaugmented input dataset."""
        return self.utility(frozenset())

    @property
    def best_utility(self) -> float:
        """Best utility seen across all queries so far."""
        return self._best

    def utility_at(self, n_queries: int) -> float:
        """Best utility achieved within the first ``n_queries`` queries."""
        best = 0.0
        for step, value in self.trace:
            if step > n_queries:
                break
            best = value
        return best
