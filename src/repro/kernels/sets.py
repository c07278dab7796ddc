"""Set-shaped kernels: distinct values, float domains, normalization.

Containment is not a kernel: the discovery index and the catalog's
corpus statistics both count ``len(query & candidate.normalized)`` over
the normalized value sets the index already holds.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import reference
from repro.kernels.coerce import type_census

__all__ = [
    "distinct_strings",
    "float_domain",
    "float_probe",
    "normalize_many",
    "normalize_strings",
]


def distinct_strings(cells) -> set:
    """Distinct non-missing cells as strings (Table.distinct_values).

    Fast path dedups *before* stringifying, which is only sound when
    cell equality implies identical ``str()`` — true within a single
    concrete type for ``str`` and ``int``, false across mixed numerics
    (``1 == 1.0 == True`` but their strings differ, and ``-0.0 == 0.0``).
    """
    cells = list(cells)
    types = type_census(cells)
    if types <= {str}:
        return {v for v in set(cells) if v.strip() != ""}
    if types == {int}:
        return {str(v) for v in set(cells)}
    if types <= {float, type(None)}:
        # No dedup first: -0.0 == 0.0 but their strings differ.  For
        # an exact float, str() is repr(); the two missing cells have
        # reprs no number shares.
        out = set(map(repr, cells))
        out.discard("None")
        out.discard("nan")
        return out
    return reference.distinct_strings(cells)


def float_domain(cells):
    """A float-or-missing column's distinct values as numbers: the sorted
    unique ``int64`` views of its non-NaN cells, or ``None`` outside the
    ``type_census(cells) <= {float, NoneType}`` precondition.

    ``map(repr, domain.view(np.float64).tolist())`` is exactly
    :func:`distinct_strings` of the same cells: a float's repr round-trips
    and only NaNs share one across bit patterns, so bit patterns and
    strings are in one-to-one correspondence (``-0.0`` and ``0.0`` stay
    apart on both sides).
    """
    cells = list(cells)
    if not type_census(cells) <= {float, type(None)}:
        return None
    values = np.array(cells, dtype=np.float64)
    return np.unique(values[~np.isnan(values)].view(np.int64))


#: The first characters a float repr can start with (``inf``, ``-1.0``,
#: ``1e+16``, ``0.5``; ``nan`` is never a value).
_FLOAT_REPR_HEADS = frozenset("0123456789-i")


def float_probe(strings) -> np.ndarray:
    """Sorted unique ``int64`` views of the floats whose ``repr`` is one
    of ``strings`` (NaN excluded): the query side of :func:`float_domain`.
    A string is in a float column's :func:`distinct_strings` exactly when
    its probe bits are in the column's domain.
    """
    found = []
    for value in strings:
        if value[:1] not in _FLOAT_REPR_HEADS:
            continue  # cheap reject: most key strings are not numbers
        try:
            number = float(value)
        except ValueError:
            continue
        # repr equality rejects every other spelling ("1", "1.00",
        # " 1.0", "Infinity", "1E+16", "1_0.0"); NaN is never a value.
        if number == number and repr(number) == value:
            found.append(number)
    return np.unique(np.array(found, dtype=np.float64).view(np.int64))


def normalize_strings(values) -> set:
    """Containment normalization: ``strip().lower()`` per value.

    Kept scalar on purpose: CPython's ``str.strip`` /
    ``str.lower`` return the original object unchanged for
    already-normal ASCII strings, and a measured ``np.strings``
    round-trip (fixed-width unicode array construction + two passes +
    re-boxing) runs ~3× slower on real column domains.  The batch entry
    point below exists for call-shape so callers stay one-pass.
    """
    return reference.normalize_strings(values)


def normalize_many(collections) -> list:
    """:func:`normalize_strings` of each collection, batched."""
    return [reference.normalize_strings(c) for c in collections]
