"""Vectorized coercion kernels (float arrays, categorical codes, type
inference).

Each kernel has a *fast path* whose preconditions are checked up front
(concrete cell types, no NUL bytes that numpy's fixed-width unicode
dtype would truncate); any column outside the preconditions falls back
to the scalar reference, so the result is exact on every input — the
fast path only ever changes speed, never values.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import reference

__all__ = [
    "coerce_number",
    "encode_categorical",
    "infer_column_type",
    "is_missing",
    "to_float_array",
    "type_census",
]

#: Cell types whose float() coercion numpy reproduces exactly.  Anything
#: else (``np.bool_``, Decimal, arbitrary objects with __float__)
#: coerces differently from the reference — which recognizes only these
#: exact families and maps the rest to NaN — and must take the scalar
#: path.  (Caught by the differential suite: numpy would happily turn
#: ``np.bool_(True)`` into 1.0 where the reference yields NaN.)
_NUMERIC_TYPES = (bool, int, float, np.integer, np.floating)
_NUMERIC_OR_NONE = _NUMERIC_TYPES + (type(None),)
_FLOATABLE_TYPES = _NUMERIC_OR_NONE + (str,)

coerce_number = reference.coerce_number


def is_missing(value) -> bool:
    """:func:`reference.is_missing` without the numpy call: NaN is the
    one float that differs from itself."""
    if value is None:
        return True
    if isinstance(value, float):
        return bool(value != value)
    if isinstance(value, str):
        return value.strip() == ""
    return False


def type_census(cells) -> set:
    """The concrete cell types of a column, in one C-speed pass.  Every
    fast-path precondition is a question about this set: ``issubclass``
    per *type* answers what ``isinstance`` per *cell* would."""
    return set(map(type, cells))


def str_cells(values) -> bool:
    """True when every cell is exactly ``str`` with no NUL bytes —
    the precondition for numpy unicode-dtype fast paths (U-dtype
    silently drops trailing NULs)."""
    return type_census(values) <= {str} and "\x00" not in "".join(values)


def to_float_array(values) -> np.ndarray:
    """Float array with NaN for missing/non-numeric cells."""
    values = list(values)
    if all(issubclass(t, _FLOATABLE_TYPES) for t in type_census(values)):
        try:
            # numpy parses numeric strings with float()'s grammar and
            # maps None -> NaN; whitespace-only / non-numeric strings
            # raise, dropping us to the exact scalar path.
            return np.array(values, dtype=float).reshape(len(values))
        except (ValueError, TypeError):
            pass
    return reference.to_float_array(values)


def encode_categorical(values) -> np.ndarray:
    """Sorted-distinct integer codes as floats, NaN for missing."""
    values = list(values)
    if values and str_cells(values):
        arr = np.asarray(values, dtype=np.str_)
        missing = np.strings.strip(arr) == ""
        keys = np.unique(arr[~missing])
        codes = np.searchsorted(keys, arr) if keys.size else np.zeros(len(arr))
        return np.where(missing, np.nan, codes.astype(float))
    return reference.encode_categorical(values)


def infer_column_type(values, categorical_threshold: int = 20) -> str:
    """Column type as its value string (see reference.infer_column_type)."""
    values = list(values)
    if values and all(issubclass(t, _NUMERIC_OR_NONE) for t in type_census(values)):
        # All-numeric cells: one value that is not NaN makes the column
        # numeric.  All NaN is left to the reference, which tells a
        # missing NaN from a present one (``np.float32("nan")``).
        if not np.isnan(np.array(values, dtype=float)).all():
            return "numeric"
    return reference.infer_column_type(values, categorical_threshold)
