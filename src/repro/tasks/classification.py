"""Supervised classification task (§VI-A): random-forest F1/accuracy."""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy, f1_score
from repro.ml.preprocessing import LabelEncoder, prepare_features
from repro.tasks.base import Task, checked_columns, split_features
from repro.utils.validation import check_in_choices


class ClassificationTask(Task):
    """Train a random forest to predict ``target_column``; utility is the
    holdout accuracy or F-score.

    ``exclude_columns`` keeps identifier columns (join keys) out of the
    feature matrix, exactly as an analyst would.  The holdout split and the
    forest are seeded, so the utility is a deterministic function of the
    input table.
    """

    name = "classification"
    quantum = 0.01

    def __init__(
        self,
        target_column: str,
        metric: str = "accuracy",
        exclude_columns=(),
        n_estimators: int = 5,
        max_depth: int = 6,
        test_fraction: float = 0.3,
        n_splits: int = 2,
        group_column: str = None,
        seed: int = 0,
    ):
        check_in_choices(metric, "metric", {"accuracy", "f1"})
        self.target_column = target_column
        self.metric = metric
        self.exclude_columns = set(checked_columns("exclude_columns", exclude_columns))
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.test_fraction = test_fraction
        self.n_splits = max(1, n_splits)
        self.group_column = group_column
        self.seed = seed

    def _features(self, table: Table) -> list:
        return [
            c
            for c in table.column_names
            if c != self.target_column and c not in self.exclude_columns
        ]

    def utility(self, table: Table) -> float:
        if self.target_column not in table:
            raise KeyError(f"target {self.target_column!r} not in table")
        features = self._features(table)
        if not features:
            return 0.0
        x, y_raw = prepare_features(table, features, self.target_column)
        y = LabelEncoder().fit_transform(y_raw)
        if len(set(y.tolist())) < 2:
            return 0.0
        # Average over a few seeded splits to stabilize the utility — a
        # noisy oracle needlessly penalizes every querying strategy.
        scores = []
        for split in range(self.n_splits):
            x_tr, x_te, y_tr, y_te = split_features(
                table,
                x,
                y,
                group_column=self.group_column,
                test_fraction=self.test_fraction,
                seed=self.seed + split,
            )
            model = RandomForestClassifier(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                seed=self.seed + split,
            )
            model.fit(x_tr, y_tr)
            predictions = model.predict(x_te)
            if self.metric == "accuracy":
                scores.append(accuracy(y_te, predictions))
            else:
                scores.append(f1_score(y_te, predictions, average="macro"))
        return self._clip(sum(scores) / len(scores))
