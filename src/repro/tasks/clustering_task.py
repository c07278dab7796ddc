"""Clustering task (§VI-A.4): satiety-score clustering of raw materials."""

from __future__ import annotations

import numpy as np

from repro.dataframe.table import Table
from repro.dataframe.types import to_float_array
from repro.ml.kmeans import KMeans
from repro.ml.preprocessing import Imputer
from repro.tasks.base import Task, checked_columns


class ClusteringTask(Task):
    """Cluster rows on available numeric features and score how tight the
    ``score_column`` is within each cluster.

    Utility = 1 − (largest within-cluster radius of the score column,
    normalized by the score's range) — the paper's "additive inverse of the
    largest cluster radius".  A feature correlated with the true categories
    (the ONI score in the paper) pulls same-category rows together, which
    tightens the score spread inside clusters and raises utility.
    """

    name = "clustering"

    def __init__(
        self,
        score_column: str,
        n_clusters: int = 3,
        exclude_columns=(),
        seed: int = 0,
    ):
        self.score_column = score_column
        self.n_clusters = n_clusters
        self.exclude_columns = set(checked_columns("exclude_columns", exclude_columns))
        self.seed = seed

    def utility(self, table: Table) -> float:
        if self.score_column not in table:
            raise KeyError(f"score column {self.score_column!r} not in table")
        features = [
            c
            for c in table.column_names
            if c != self.score_column and c not in self.exclude_columns
        ]
        score = to_float_array(table.column(self.score_column))
        mask = ~np.isnan(score)
        if mask.sum() < self.n_clusters:
            return 0.0
        score = score[mask]
        span = float(score.max() - score.min())
        if span == 0.0:
            return 1.0
        if not features:
            return 0.0
        matrix = Imputer().fit_transform(table.to_matrix(features))[mask]
        # Min-max scaling (not z-scoring): it preserves the concentration of
        # multi-modal informative features, which z-scoring flattens.
        lo = matrix.min(axis=0)
        span_f = matrix.max(axis=0) - lo
        span_f[span_f == 0.0] = 1.0
        matrix = (matrix - lo) / span_f
        model = KMeans(
            n_clusters=self.n_clusters, n_init=5, seed=self.seed
        ).fit(matrix)
        worst = 0.0
        for label in range(self.n_clusters):
            members = score[model.labels_ == label]
            if len(members):
                center = float(members.mean())
                radius = float(np.max(np.abs(members - center)))
                worst = max(worst, radius)
        return self._clip(1.0 - worst / span)
