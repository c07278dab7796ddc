"""Executable spec of ``repro.core.bandit``: the set-and-list group sampler it
replaced, kept verbatim below this paragraph.  ``test_search_diff.py`` holds
the array-native selector to it draw for draw; nothing in ``src/`` imports it.

IDENTIFY-GROUP: Thompson sampling over clusters (§IV-B).

Each cluster is a Beta-Bernoulli arm; the reward is whether a group query
containing a member of the cluster improved utility.  Sampling a size-``t``
group draws ``t`` clusters by posterior sample and picks a random
not-yet-used augmentation from each.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clusters
from repro.utils.rng import ensure_rng


class ThompsonGroupSelector:
    """Beta-Bernoulli Thompson sampling over cluster arms."""

    def __init__(self, clusters: Clusters, seed=None, uniform: bool = False):
        self.clusters = clusters
        self.rng = ensure_rng(seed)
        self.uniform = uniform
        n = clusters.n_clusters
        self._alpha = np.ones(n)
        self._beta = np.ones(n)

    def posterior_samples(self) -> np.ndarray:
        """One Thompson draw per cluster (uniform draw in the Eq variant)."""
        if self.uniform:
            return self.rng.uniform(size=self.clusters.n_clusters)
        return self.rng.beta(self._alpha, self._beta)

    def sample_group(self, size: int, available, member_score=None) -> list:
        """A group of up to ``size`` augmentation indices.

        ``available`` is the set of candidate indices still eligible.
        Clusters are ranked by posterior sample; one available member is
        taken per cluster until the group is full — a random one, or the
        best-scoring one when ``member_score`` (index → float) is given
        (explore across clusters, exploit within).
        """
        available = set(available)
        if not available or size < 1:
            return []
        draws = self.posterior_samples()
        order = np.argsort(-draws)
        group = []
        for cluster_id in order:
            members = [
                m for m in self.clusters.members(int(cluster_id)) if m in available
            ]
            if not members:
                continue
            if member_score is None:
                pick = members[int(self.rng.integers(0, len(members)))]
            else:
                pick = max(members, key=member_score)
            group.append(pick)
            available.discard(pick)
            if len(group) >= size:
                break
        return group

    def reward(self, indices, success: bool) -> None:
        """Update the posterior of every cluster involved in a group."""
        involved = {self.clusters.cluster_of(i) for i in indices}
        for cluster_id in involved:
            if success:
                self._alpha[cluster_id] += 1.0
            else:
                self._beta[cluster_id] += 1.0

    def posterior_mean(self, cluster_id: int) -> float:
        """Current success-probability estimate of a cluster arm."""
        a = self._alpha[cluster_id]
        b = self._beta[cluster_id]
        return float(a / (a + b))
