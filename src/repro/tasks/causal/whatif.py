"""What-if analysis task (§VI-A): which attributes does an update affect?"""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.ml.preprocessing import Imputer
from repro.tasks.base import Task, canonical_column, checked_columns
from repro.tasks.causal.discovery import dependent_columns


class WhatIfTask(Task):
    """Given a hypothetical update to ``treatment_column``, identify the
    attributes causally affected by it.

    The task runs CI tests between the treatment and every candidate
    attribute (conditioning on the base attributes, PC-style) and flags the
    dependent ones.  Utility is the fraction of the ground-truth affected
    attributes that have been discovered and flagged — the paper's
    "fraction of correctly identified attributes (p-value ≤ 0.05)".  The
    score is monotone: augmenting another true effect can only raise it.
    """

    name = "what_if"

    def __init__(
        self,
        treatment_column: str,
        truth_affected,
        base_columns=(),
        exclude_columns=(),
        alpha: float = 0.05,
        max_cond: int = 1,
    ):
        truth_affected = checked_columns("truth_affected", truth_affected)
        if not truth_affected:
            raise ValueError("truth_affected must be a non-empty collection")
        self.treatment_column = treatment_column
        self.truth_affected = set(truth_affected)
        self.base_columns = checked_columns("base_columns", base_columns)
        self.exclude_columns = set(checked_columns("exclude_columns", exclude_columns))
        self.alpha = alpha
        self.max_cond = max_cond

    def utility(self, table: Table) -> float:
        if self.treatment_column not in table:
            raise KeyError(f"treatment {self.treatment_column!r} not in table")
        columns = [
            c for c in table.column_names if c not in self.exclude_columns
        ]
        matrix = Imputer().fit_transform(table.to_matrix(columns))
        index = {c: i for i, c in enumerate(columns)}
        pivot = index[self.treatment_column]
        candidates = [
            index[c] for c in columns if c != self.treatment_column
        ]
        cond_pool = [
            index[c]
            for c in self.base_columns
            if c in index and c != self.treatment_column
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
            if canonical_column(columns[i]) in self.truth_affected
        }
        return self._clip(len(found) / len(self.truth_affected))
