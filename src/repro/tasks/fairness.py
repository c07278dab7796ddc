"""Fair classification task (§VI-A.4): fairness-aware feature selection."""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import f1_score
from repro.ml.model_selection import train_test_split
from repro.ml.preprocessing import Imputer, LabelEncoder
from repro.tasks.base import Task, checked_columns
from repro.utils.stats import pearson


class FairClassificationTask(Task):
    """Predict ``target_column`` while discarding features correlated with
    the sensitive attribute (fairness-aware feature selection, [49]).

    Features with |corr(feature, sensitive)| above ``fairness_threshold``
    are dropped before training; utility is the holdout F-score.  This
    reproduces the paper's tension: highly predictive attributes are often
    unfair, so single-profile rankings fail while METAM's weighted profile
    combination succeeds.
    """

    name = "fair_classification"
    quantum = 0.01

    def __init__(
        self,
        target_column: str,
        sensitive_column: str,
        fairness_threshold: float = 0.3,
        exclude_columns=(),
        n_estimators: int = 5,
        max_depth: int = 6,
        test_fraction: float = 0.3,
        seed: int = 0,
    ):
        self.target_column = target_column
        self.sensitive_column = sensitive_column
        self.fairness_threshold = fairness_threshold
        self.exclude_columns = set(checked_columns("exclude_columns", exclude_columns))
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.test_fraction = test_fraction
        self.seed = seed

    def _fair_features(self, table: Table) -> list:
        sensitive = table.encoded(self.sensitive_column)
        fair = []
        for column in table.column_names:
            if column in (self.target_column, self.sensitive_column):
                continue
            if column in self.exclude_columns:
                continue
            r = abs(pearson(table.encoded(column), sensitive))
            if r <= self.fairness_threshold:
                fair.append(column)
        return fair

    def utility(self, table: Table) -> float:
        for column in (self.target_column, self.sensitive_column):
            if column not in table:
                raise KeyError(f"column {column!r} not in table")
        features = self._fair_features(table)
        if not features:
            return 0.0
        x = Imputer().fit_transform(table.to_matrix(features))
        y = LabelEncoder().fit_transform(table.column(self.target_column))
        if len(set(y.tolist())) < 2:
            return 0.0
        x_tr, x_te, y_tr, y_te = train_test_split(
            x, y, test_fraction=self.test_fraction, seed=self.seed
        )
        model = RandomForestClassifier(
            n_estimators=self.n_estimators, max_depth=self.max_depth, seed=self.seed
        )
        model.fit(x_tr, y_tr)
        return self._clip(f1_score(y_te, model.predict(x_te), average="macro"))
