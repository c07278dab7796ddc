"""How-to analysis task (§VI-A): which attributes to update for a goal?"""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.ml.preprocessing import Imputer
from repro.tasks.base import Task, canonical_column, checked_columns
from repro.tasks.causal.discovery import dependent_columns


class HowToTask(Task):
    """Identify attributes whose update would move ``outcome_column``.

    Flags attributes that stay dependent on the outcome under PC-style
    conditioning; utility is the fraction of the ground-truth causal
    drivers discovered.  Like what-if, the utility is monotone in the set
    of true drivers present in the table.
    """

    name = "how_to"

    def __init__(
        self,
        outcome_column: str,
        truth_causes,
        base_columns=(),
        exclude_columns=(),
        alpha: float = 0.05,
        max_cond: int = 1,
    ):
        truth_causes = checked_columns("truth_causes", truth_causes)
        if not truth_causes:
            raise ValueError("truth_causes must be a non-empty collection")
        self.outcome_column = outcome_column
        self.truth_causes = set(truth_causes)
        self.base_columns = checked_columns("base_columns", base_columns)
        self.exclude_columns = set(checked_columns("exclude_columns", exclude_columns))
        self.alpha = alpha
        self.max_cond = max_cond

    def utility(self, table: Table) -> float:
        if self.outcome_column not in table:
            raise KeyError(f"outcome {self.outcome_column!r} not in table")
        columns = [
            c for c in table.column_names if c not in self.exclude_columns
        ]
        matrix = Imputer().fit_transform(table.to_matrix(columns))
        index = {c: i for i, c in enumerate(columns)}
        pivot = index[self.outcome_column]
        candidates = [index[c] for c in columns if c != self.outcome_column]
        cond_pool = [
            index[c]
            for c in self.base_columns
            if c in index and c != self.outcome_column
        ]
        flagged = dependent_columns(
            matrix,
            pivot,
            candidates,
            cond_pool=cond_pool,
            alpha=self.alpha,
            max_cond=self.max_cond,
        )
        found = {
            canonical_column(columns[i])
            for i in flagged
            if canonical_column(columns[i]) in self.truth_causes
        }
        return self._clip(len(found) / len(self.truth_causes))
