"""Shared helpers for the differential kernel suite."""

from decimal import Decimal

import numpy as np
from hypothesis import strategies as st

from repro import kernels


def differential(fn, *args, **kwargs):
    """Run ``fn(*args)`` under both kernel modes; returns the pair
    ``(vectorized_result, reference_result)`` for the caller to compare.

    Restores whatever mode was active, so tests cannot leak mode state
    into each other.
    """
    with kernels.force_mode("vectorized"):
        vectorized = fn(*args, **kwargs)
    with kernels.force_mode("reference"):
        reference = fn(*args, **kwargs)
    return vectorized, reference


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
