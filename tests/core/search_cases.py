"""Shared inputs of the search-core suites: tie-heavy profile matrices,
cluster partitions, and a cheap set-valued utility oracle."""

import numpy as np
from hypothesis import strategies as st

from repro.core import cluster_partition
from repro.core.clustering import Clusters, singleton_clusters
from repro.dataframe import Table
from repro.discovery import Candidate
from repro.tasks.base import Task

WIDTHS = list(range(1, 14)) + [32, 33]
EPSILONS = [0.05, 0.1, 0.25, 0.5, 1.0]


@st.composite
def profile_matrices(draw, max_rows=28):
    """Profile rows in [0, 1] with planted ties: coarse grids and
    duplicated rows make equal quality scores (→ lowest index wins) and
    zero distances common."""
    n = draw(st.integers(1, max_rows))
    k = draw(st.sampled_from(WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profiles = rng.uniform(0.0, 1.0, size=(n, k))
    if draw(st.booleans()):
        profiles = np.round(profiles, draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(0, n // 2))):
        src, dst = rng.integers(0, n, size=2)
        profiles[dst] = profiles[src]
    return profiles


@st.composite
def partitions(draw, profiles):
    kind = draw(st.sampled_from(["cover", "cover", "one", "singletons"]))
    if kind == "one":
        return Clusters(profiles, [0], np.zeros(len(profiles), dtype=int))
    if kind == "singletons":
        return singleton_clusters(profiles)
    return cluster_partition(
        profiles, draw(st.sampled_from(EPSILONS)), seed=draw(st.integers(0, 99))
    )


class ColumnAug:
    def __init__(self, aug_id):
        self.aug_id = aug_id

    def apply(self, table, base, corpus):
        if self.aug_id in table:
            return table
        return table.with_column(self.aug_id, [1.0] * table.num_rows)


class SetTask(Task):
    """Utility of a set of augmentations: per-column effects (helpful,
    harmful, useless) plus pair synergies, so gains depend on the current
    solution, fall when an index is re-queried in a later round, and
    group queries can beat every single column."""

    name = "set"
    quantum = 0.01

    def __init__(self, base, effects, synergies, raw=False):
        self.base, self.effects, self.synergies, self.raw = base, effects, synergies, raw

    def utility(self, table):
        present = [c for c in table.column_names if c in self.effects]
        value = self.base + sum(self.effects[c] for c in present)
        for (a, b), bonus in self.synergies.items():
            if a in present and b in present:
                value += bonus
        return value if self.raw else self._clip(value)


def make_search(profiles, task_seed, raw=False):
    """Candidates over ``profiles`` and a task whose helpful columns have
    a high first profile (so the weights have something to learn)."""
    n = len(profiles)
    rng = np.random.default_rng(task_seed)
    ids = [f"aug{i:04d}" for i in range(n)]
    effects = {}
    for i, aug_id in enumerate(ids):
        kind = rng.random()
        lift = 0.3 * profiles[i, 0] if kind < 0.4 else 0.0
        effects[aug_id] = round(float(lift - (0.1 if kind > 0.85 else 0.0)), 2)
    synergies = {}
    for _ in range(int(rng.integers(0, 4))):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            synergies[(ids[a], ids[b])] = round(float(rng.uniform(-0.2, 0.4)), 2)
    if raw:
        # An unclipped oracle may answer NaN or inf.
        for aug_id, value in zip(
            rng.choice(ids, size=min(n, 3), replace=False),
            [float("nan"), float("inf"), -1.5],
            strict=False,
        ):
            effects[str(aug_id)] = value
    candidates = [
        Candidate(aug=ColumnAug(aug_id), values=[1.0, 1.0], overlap=1.0,
                  profile_vector=profiles[i].copy())
        for i, aug_id in enumerate(ids)
    ]
    base = Table("b", {"x": [1.0, 2.0]})
    return candidates, base, SetTask(0.2, effects, synergies, raw=raw)


def spread_profiles(seed, n, k=5):
    return np.random.default_rng(seed).uniform(0.0, 0.7, size=(n, k))
