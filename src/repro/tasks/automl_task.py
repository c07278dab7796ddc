"""AutoML task (Fig. 4a): utility from the MiniAutoML search."""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.ml.automl import MiniAutoML
from repro.ml.metrics import accuracy
from repro.ml.model_selection import train_test_split
from repro.ml.preprocessing import LabelEncoder, prepare_features
from repro.tasks.base import Task, checked_columns


class AutoMLTask(Task):
    """Run the MiniAutoML searcher (TPOT substitute) and report holdout
    accuracy of the winning pipeline as the utility."""

    name = "automl_classification"
    quantum = 0.01

    def __init__(
        self,
        target_column: str,
        exclude_columns=(),
        budget: int = 4,
        test_fraction: float = 0.3,
        seed: int = 0,
    ):
        self.target_column = target_column
        self.exclude_columns = set(checked_columns("exclude_columns", exclude_columns))
        self.budget = budget
        self.test_fraction = test_fraction
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
        x, y_raw = prepare_features(table, features, self.target_column)
        y = LabelEncoder().fit_transform(y_raw)
        if len(set(y.tolist())) < 2:
            return 0.0
        x_tr, x_te, y_tr, y_te = train_test_split(
            x, y, test_fraction=self.test_fraction, seed=self.seed
        )
        automl = MiniAutoML(
            mode="classification", budget=self.budget, seed=self.seed
        )
        automl.fit(x_tr, y_tr)
        return self._clip(accuracy(y_te, automl.predict(x_te)))
