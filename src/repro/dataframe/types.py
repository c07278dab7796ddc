"""Column type inference and numeric coercion for noisy tables.

The coercion loops live in :mod:`repro.kernels` — vectorized with exact
scalar fallbacks.  This module keeps the public names and the
:class:`ColumnType` enum the rest of the library imports.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro import kernels


class ColumnType(Enum):
    """Coarse column types used by profiling and ML preprocessing."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    TEXT = "text"
    EMPTY = "empty"


#: True when a cell represents a missing value (None, NaN, '').
is_missing = kernels.is_missing


def infer_column_type(values, categorical_threshold: int = 20) -> ColumnType:
    """Infer the :class:`ColumnType` of a list of raw cell values.

    A column is NUMERIC when every non-missing value parses as a number;
    CATEGORICAL when it is non-numeric with few distinct values; otherwise
    TEXT.  Fully missing columns are EMPTY.
    """
    return ColumnType(kernels.infer_column_type(values, categorical_threshold))


def to_float_array(values) -> np.ndarray:
    """Convert raw cells to a float array with NaN for missing/non-numeric."""
    return kernels.to_float_array(values)


def encode_categorical(values) -> np.ndarray:
    """Encode raw cells as stable integer codes; missing becomes NaN.

    Codes are assigned by sorted string order so the encoding is
    deterministic across runs (no hash randomization).
    """
    return kernels.encode_categorical(values)
