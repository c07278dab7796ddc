"""METAM (Algorithm 1): adaptive interventional querying.

The search alternates the *sequential* mechanism (query the best-scoring
augmentation, one per cluster per round, and update profile-importance
weights) with the *group* mechanism (Thompson-sampled size-``t`` subsets
whose best result is tracked as ``T*_c``).  Rounds end by committing the
best improving augmentation found (monotonicity certification); the final
solution is the better of the sequential and group solutions, post-
processed by IDENTIFY-MINIMAL.
"""

from __future__ import annotations

import numpy as np

from repro.core.bandit import ThompsonGroupSelector
from repro.core.clustering import cluster_partition, singleton_clusters
from repro.core.config import MetamConfig
from repro.core.homogeneity import check_cluster_homogeneity
from repro.core.minimality import identify_minimal
from repro.core.monotonic import MonotoneState
from repro.core.quality import QualityScorer
from repro.core.querying import QueryBudgetExhausted, QueryEngine
from repro.core.result import SearchResult
from repro.dataframe.table import Table
from repro.utils.rng import ensure_rng


def _profile_matrix(ids, vectors) -> np.ndarray:
    """The candidates' profile vectors as one ``(n, p)`` float matrix.

    Every vector must be 1-D, finite and as long as the first (p >= 1); a
    ``ValueError`` names the first candidate whose vector is not.
    """
    try:
        profiles = np.array(vectors, dtype=float)
    except ValueError:  # ragged; the scan below names the culprit
        profiles = None
    if profiles is None or profiles.ndim != 2 or not profiles.shape[1]:
        width = np.shape(vectors[0])
        for aug_id, vector in zip(ids, vectors, strict=True):
            shape = np.shape(vector)
            if len(shape) != 1 or not shape[0] or shape != width:
                raise ValueError(
                    "profile vectors must be 1-D and share one length >= 1; "
                    f"candidate {aug_id!r} has shape {shape} "
                    f"(first candidate: {width})"
                )
        profiles = np.array(vectors, dtype=float)  # numpy's own error, if any
    finite = np.isfinite(profiles).all(axis=1)
    if not finite.all():
        # CLUSTER-PARTITION never terminates on a NaN distance.
        raise ValueError(
            f"{int((~finite).sum())} candidates have non-finite profile "
            f"vectors (first: {ids[int(finite.argmin())]!r})"
        )
    return profiles


class Metam:
    """Goal-oriented data discovery over a profiled candidate set.

    Parameters
    ----------
    candidates:
        Profiled candidates (``profile_vector`` must be set; see
        :func:`repro.discovery.candidates.profile_candidates`).
    base / corpus / task:
        The input dataset, the repository, and the downstream task.
    config:
        Search knobs; see :class:`~repro.core.config.MetamConfig`.

    ``on_round`` (optional observer, default ``None``) is called after
    each outer-loop round with ``(round_index, utility, queries,
    committed)`` — the serving API's round-complete event, set once per
    run on a searcher its factory has just built.

    ``partition`` is CLUSTER-PARTITION, called once per run as
    ``partition(profiles, epsilon, seed=rng)``.  A strategy, not an
    observer: a class-level seam an instance may shadow — the serving
    engine serves it from a memo of covers unless the factory chose its
    own — with any callable that returns the same partition and draws
    from ``rng`` exactly what
    :func:`~repro.core.clustering.cluster_partition` draws.
    """

    on_round = None
    partition = staticmethod(cluster_partition)

    def __init__(
        self,
        candidates,
        base: Table,
        corpus: dict,
        task,
        config: MetamConfig = None,
    ):
        self.candidates = list(candidates)
        if not self.candidates:
            raise ValueError("candidate set is empty")
        missing = [c.aug_id for c in self.candidates if c.profile_vector is None]
        if missing:
            raise ValueError(
                f"{len(missing)} candidates lack profile vectors "
                f"(first: {missing[0]!r}); run profile_candidates first"
            )
        self.base = base
        self.corpus = corpus
        self.task = task
        self.config = config or MetamConfig()
        self.engine = QueryEngine(
            task, base, corpus, self.candidates, budget=self.config.query_budget
        )
        self._ids = [c.aug_id for c in self.candidates]
        self._profiles = _profile_matrix(
            self._ids, [c.profile_vector for c in self.candidates]
        )

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Execute Algorithm 1 and return the search result."""
        config = self.config
        rng = ensure_rng(config.seed)

        if config.use_clustering:
            clusters = self.partition(self._profiles, config.epsilon, seed=rng)
        else:
            clusters = singleton_clusters(self._profiles)
        scorer = QualityScorer(self._profiles, clusters)

        try:
            state = MonotoneState(self.engine)
        except QueryBudgetExhausted:
            return self._result([], 0.0, 0.0, clusters)
        base_utility = state.utility

        # Mutable search-wide state shared with the round routine.
        search = {
            "best_group": None,  # (frozenset of aug ids, utility)
            "group_size": 1,
            "groups_at_size": 0,
            "groups_per_size": config.groups_per_size
            or max(2, clusters.n_clusters),
            "checked_clusters": set(),
            "selected": np.zeros(len(self._ids), dtype=bool),  # by index
        }
        exhausted = False

        try:
            if config.homogeneity == "active":
                clusters, scorer = self._active_homogeneity(
                    clusters, scorer, base_utility, rng, config
                )
            bandit = ThompsonGroupSelector(
                clusters, seed=rng, uniform=not config.use_thompson
            )

            rounds = 0
            while state.utility < config.theta and (
                search["best_group"] is None
                or search["best_group"][1] < config.theta
            ):
                committed = self._run_round(
                    state, scorer, clusters, bandit, base_utility, search
                )
                rounds += 1
                if self.on_round is not None:
                    self.on_round(
                        rounds, state.utility, self.engine.queries, committed
                    )
                if not committed:
                    break  # no candidate improves utility any more
        except QueryBudgetExhausted:
            exhausted = True

        # Choose the better of the sequential and group solutions.
        selected = list(state.selected)
        utility = state.utility
        best_group = search["best_group"]
        if best_group is not None and best_group[1] > utility:
            selected = sorted(best_group[0])
            utility = best_group[1]

        # Minimality post-processing.
        if config.run_minimality and not exhausted and len(selected) > 1:
            threshold = min(config.theta, utility)
            selected = identify_minimal(selected, self.engine, threshold)
            try:
                utility = self.engine.utility(frozenset(selected))
            except QueryBudgetExhausted:
                pass

        return self._result(selected, utility, base_utility, clusters, scorer)

    # ------------------------------------------------------------------
    def _run_round(
        self,
        state: MonotoneState,
        scorer: QualityScorer,
        clusters,
        bandit: ThompsonGroupSelector,
        base_utility: float,
        search: dict,
    ) -> bool:
        """One outer-loop round (lines 7-22).  Returns True if an
        augmentation was committed to the solution."""
        config = self.config
        tau = config.tau or clusters.n_clusters
        selected = search["selected"]
        # Off-limits this round: the solution, plus every cluster already
        # queried (one query per cluster per round).
        blocked = selected.copy()
        best_index = None  # first candidate with this round's best utility
        best_seen = -np.inf
        i = 0

        def commit() -> bool:
            """Commit the round's best candidate if it improves (line 18)."""
            if best_index is not None and best_seen > state.utility:
                state.accept(self._ids[best_index], best_seen)
                selected[best_index] = True
                return True
            return False

        try:
            while True:
                if i >= tau and best_seen > state.utility:
                    break
                index = scorer.best_where(~blocked)
                if index is None:
                    # Sequential pool exhausted for this round: keep the group
                    # (combinatorial) mechanism going so larger subsets are
                    # still explored (the Theorem-3 exhaustiveness path).
                    issued = self._group_step(state, bandit, scorer, base_utility, search)
                    i += 1
                    if not issued or i >= 4 * tau:
                        if best_seen > -np.inf:
                            break
                        return False  # nothing left to query at all
                    best_group = search["best_group"]
                    if best_group is not None and best_group[1] >= config.theta:
                        break
                    continue
                # Sequential mechanism: query solution + candidate.
                value = state.utility_with(self._ids[index])
                if best_index is None or value > best_seen:
                    best_index, best_seen = index, value
                cluster_id = clusters.cluster_of(index)
                blocked[clusters.member_array(cluster_id)] = True
                scorer.update(index, value - state.utility)
                if config.homogeneity == "lazy":
                    self._lazy_homogeneity(
                        clusters, scorer, cluster_id, search["checked_clusters"],
                        base_utility,
                    )
                if i % config.group_interval == 0:
                    self._group_step(state, bandit, scorer, base_utility, search)
                i += 1
                if i >= 4 * tau:
                    break  # bounded round length even without improvement
        except QueryBudgetExhausted:
            # Anytime: the budget ended mid-round; keep what the round
            # already paid for instead of discarding its queries.
            commit()
            raise
        return commit()

    def _group_step(
        self,
        state: MonotoneState,
        bandit: ThompsonGroupSelector,
        scorer: QualityScorer,
        base_utility: float,
        search: dict,
    ) -> bool:
        """One group-mechanism query (lines 13-15): Thompson-sample a
        size-``t`` subset, evaluate it against Din, track the best.
        Returns False when no group could be formed."""
        group = bandit.sample_group(
            search["group_size"], ~search["selected"], member_score=scorer.qualities
        )
        if not group:
            return False
        group_ids = frozenset(self._ids[j] for j in group)
        group_value = self.engine.utility(group_ids)
        bandit.reward(group, success=group_value > base_utility)
        best = search["best_group"]
        if best is None or group_value > best[1]:
            search["best_group"] = (group_ids, group_value)
        search["groups_at_size"] += 1
        if search["groups_at_size"] >= search["groups_per_size"]:
            search["groups_at_size"] = 0
            search["group_size"] = min(
                search["group_size"] + 1, self.config.max_group_size
            )
        return True

    # ------------------------------------------------------------------
    def _lazy_homogeneity(
        self, clusters, scorer, cluster_id, checked_clusters, base_utility
    ) -> None:
        """Validate P2 from already-paid-for gains (lazy mode).

        Only the cluster whose observed-member count just changed can have
        newly reached the two gains the test needs.
        """
        if cluster_id in checked_clusters or scorer.observed_count(cluster_id) < 2:
            return
        checked_clusters.add(cluster_id)
        homogeneous = check_cluster_homogeneity(
            clusters,
            cluster_id,
            self.engine,
            self._ids,
            base_utility,
            self.config.epsilon,
            mode="lazy",
            observed_gains=scorer.observed_gains,
        )
        if not homogeneous:
            scorer.disable_propagation(cluster_id)

    def _active_homogeneity(self, clusters, scorer, base_utility, rng, config):
        """The paper's up-front homogeneity test (log|C| queries/cluster).

        Non-homogeneous clusters are dissolved into singletons and the
        scorer is rebuilt over the new partition.
        """
        dissolved = []
        for cluster_id in range(clusters.n_clusters):
            homogeneous = check_cluster_homogeneity(
                clusters,
                cluster_id,
                self.engine,
                self._ids,
                base_utility,
                config.epsilon,
                mode="active",
                seed=rng,
            )
            if not homogeneous:
                dissolved.append(cluster_id)
        for cluster_id in sorted(dissolved, reverse=True):
            clusters = clusters.dissolve(cluster_id)
        if dissolved:
            scorer = QualityScorer(self._profiles, clusters)
            # Seed the scorer with the gains the probe queries produced.
            for i, aug_id in enumerate(self._ids):
                cached = self.engine.cached_utility({aug_id})
                if cached is not None:
                    scorer.observe(i, cached - base_utility)
        return clusters, scorer

    # ------------------------------------------------------------------
    def _result(
        self, selected, utility, base_utility, clusters, scorer=None
    ) -> SearchResult:
        extras = {"n_clusters": clusters.n_clusters}
        if scorer is not None:
            extras["profile_weights"] = scorer.weights.tolist()
        return SearchResult(
            searcher="metam",
            selected=list(selected),
            utility=float(utility),
            base_utility=float(base_utility),
            queries=self.engine.queries,
            trace=list(self.engine.trace),
            extras=extras,
        )
