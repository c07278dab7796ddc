"""Supervised regression task (§VI-A): utility = 1 − normalized MAE."""

from __future__ import annotations

import numpy as np

from repro.dataframe.table import Table
from repro.dataframe.types import to_float_array
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import mean_absolute_error
from repro.ml.model_selection import train_test_split
from repro.ml.preprocessing import prepare_features
from repro.tasks.base import Task, checked_columns


class RegressionTask(Task):
    """Random-forest regression; utility is ``1 − MAE`` after normalization
    (the paper reports 1 − MAE directly).

    MAE is normalized by the error of a predict-the-training-mean baseline,
    so the utility reads as "fraction of naive error removed": 0 for a
    model no better than the mean, approaching 1 for a perfect fit.  This
    keeps utility in [0, 1] for any target scale — the paper's collision
    counts included — while leaving headroom for augmentations to show.
    """

    name = "regression"
    quantum = 0.01

    def __init__(
        self,
        target_column: str,
        exclude_columns=(),
        n_estimators: int = 5,
        max_depth: int = 6,
        test_fraction: float = 0.3,
        n_splits: int = 2,
        seed: int = 0,
    ):
        self.target_column = target_column
        self.exclude_columns = set(checked_columns("exclude_columns", exclude_columns))
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.test_fraction = test_fraction
        self.n_splits = max(1, n_splits)
        self.seed = seed

    def utility(self, table: Table) -> float:
        if self.target_column not in table:
            raise KeyError(f"target {self.target_column!r} not in table")
        features = [
            c
            for c in table.column_names
            if c != self.target_column and c not in self.exclude_columns
        ]
        if not features:
            return 0.0
        x = prepare_features(table, features)
        y = to_float_array(table.column(self.target_column))
        mask = ~np.isnan(y)
        x, y = x[mask], y[mask]
        if len(y) < 10:
            return 0.0
        lo, hi = float(y.min()), float(y.max())
        if hi == lo:
            return 0.0
        y_norm = (y - lo) / (hi - lo)
        # Averaged seeded splits stabilize the oracle (see ClassificationTask).
        ratios = []
        for split in range(self.n_splits):
            x_tr, x_te, y_tr, y_te = train_test_split(
                x, y_norm, test_fraction=self.test_fraction, seed=self.seed + split
            )
            model = RandomForestRegressor(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                seed=self.seed + split,
            )
            model.fit(x_tr, y_tr)
            mae = mean_absolute_error(y_te, model.predict(x_te))
            baseline = mean_absolute_error(
                y_te, np.full_like(y_te, float(y_tr.mean()))
            )
            ratios.append(mae / baseline if baseline > 0 else 1.0)
        return self._clip(1.0 - sum(ratios) / len(ratios))
