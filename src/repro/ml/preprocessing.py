"""Feature preprocessing: imputation, scaling, label/feature encoding."""

from __future__ import annotations

import numpy as np

from repro.dataframe.table import Table


class LabelEncoder:
    """Map arbitrary labels to contiguous integer codes (deterministic)."""

    def __init__(self):
        self.classes_ = None
        self._index = None

    def fit(self, labels):
        self.classes_ = sorted({str(v) for v in labels})
        self._index = {c: i for i, c in enumerate(self.classes_)}
        return self

    def transform(self, labels) -> np.ndarray:
        if self._index is None:
            raise RuntimeError("LabelEncoder.transform called before fit")
        return np.array([self._index[str(v)] for v in labels], dtype=int)

    def fit_transform(self, labels) -> np.ndarray:
        return self.fit(labels).transform(labels)


class Imputer:
    """Replace NaN by the column mean (numeric) computed at fit time.

    Columns that are entirely NaN impute to 0.0 so downstream models always
    receive finite matrices.
    """

    def __init__(self):
        self.fill_values_ = None

    def fit(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        finite = ~np.isnan(matrix)
        counts = finite.sum(axis=0)
        sums = np.where(finite, matrix, 0.0).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts
        self.fill_values_ = np.where(counts == 0, 0.0, means)
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.fill_values_ is None:
            raise RuntimeError("Imputer.transform called before fit")
        matrix = np.asarray(matrix, dtype=float).copy()
        for j in range(matrix.shape[1]):
            col = matrix[:, j]
            col[np.isnan(col)] = self.fill_values_[j]
        return matrix

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)


def prepare_features(table: Table, feature_columns, target_column=None):
    """Encode a table into a finite float feature matrix (and target).

    Numeric columns pass through; categorical/text columns get deterministic
    integer codes; missing values are mean-imputed.  Returns ``X`` or
    ``(X, y)`` when ``target_column`` is given (``y`` is the raw column).
    """
    feature_columns = [c for c in feature_columns if c != target_column]
    matrix = table.to_matrix(feature_columns)
    x = Imputer().fit_transform(matrix) if matrix.size else matrix
    if target_column is None:
        return x
    return x, table.column(target_column)
