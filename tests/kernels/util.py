"""Shared helpers for the differential kernel suite."""

from decimal import Decimal

import numpy as np
from hypothesis import strategies as st

from tests.kernels import reference_bulk


def differential(kernel, oracle, *args):
    """``(kernel(*args), oracle(*args))`` for the caller to compare:
    the dispatcher in :mod:`repro.kernels` beside its scalar form."""
    return kernel(*args), oracle(*args)


def hash_strings_oracle(values):
    """``reference_bulk.hash_strings`` over any collection, as
    ``kernels.hash_strings`` takes it (a set hashes in iteration order)."""
    return reference_bulk.hash_strings(list(values))


def minhash_many_oracle(hash_columns, a, b):
    """One :func:`reference_bulk.minhash_from_hashes` row per column."""
    rows = [reference_bulk.minhash_from_hashes(h, a, b) for h in hash_columns]
    return np.stack(rows) if rows else np.empty((0, a.shape[0]), dtype=np.uint64)


class Label(str):
    """A str subclass: a str to isinstance, not to ``type(v) is str``."""


class Ratio(float):
    """A float subclass (like ``np.float64``)."""


#: Cells whose type is a *subclass* of a fast-path family, or looks like
#: one and is not — the type census (``issubclass`` per distinct type)
#: must dispatch each exactly as ``isinstance`` per cell did.
SUBCLASS_CELLS = (
    True, False, np.bool_(True), np.float64(2.5), np.float64("nan"),
    np.float32(0.1), np.float32("nan"), np.int64(3), np.uint8(7),
    Decimal("1.5"), Label("7"), Label(" x "), Label(""), Ratio(4.0),
    Ratio("nan"), 1, 2.5, -0.0, "8", "", None, float("nan"),
)  # fmt: skip
subclass_columns = st.lists(st.sampled_from(SUBCLASS_CELLS), max_size=12)
