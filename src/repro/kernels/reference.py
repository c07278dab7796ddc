"""Scalar per-value implementations: the exact path of every kernel.

These are the per-value Python loops the vectorized kernels replaced,
kept verbatim (same math, same edge handling) for two reasons:

* a few inputs (exotic cell types, NUL-embedded strings) are outside the
  vectorized fast paths' preconditions, and the dispatchers fall back to
  these functions — on those inputs this is the only path;
* the **differential test suite** (``tests/kernels/``) drives every
  vectorized kernel against these on adversarial columns — the scalar
  function is the executable specification.  (The bulk hashing and
  MinHash oracles, which no dispatcher falls back to, live beside the
  suite in ``tests/kernels/reference_bulk.py``.)

Nothing here may import from the vectorized modules or from
``repro.dataframe`` — the scalar path stands alone so a kernel bug can
never contaminate its own oracle.
"""

from __future__ import annotations

import hashlib

import numpy as np

MERSENNE = (1 << 61) - 1
MAX_HASH = (1 << 32) - 1


def stable_hash_v1(value: str) -> int:
    """Stable 32-bit hash of a string (independent of PYTHONHASHSEED).

    This is the hash every stored v2 signature was computed with; it is
    pinned forever (``blake2b(utf-8, digest_size=4)``, big-endian).
    """
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


# ----------------------------------------------------------------------
# Scalar coercion / missing-value reference (the original
# repro.dataframe.types loops, kept verbatim).
# ----------------------------------------------------------------------
def is_missing(value) -> bool:
    if value is None:
        return True
    if isinstance(value, float) and np.isnan(value):
        return True
    if isinstance(value, str) and value.strip() == "":
        return True
    return False


def coerce_number(value):
    """``float(value)`` or ``None`` if it is not numeric."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return None if isinstance(value, float) and np.isnan(value) else float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


def to_float_array(values) -> np.ndarray:
    out = np.empty(len(values), dtype=float)
    for i, v in enumerate(values):
        num = None if is_missing(v) else coerce_number(v)
        out[i] = np.nan if num is None else num
    return out


def encode_categorical(values) -> np.ndarray:
    keys = sorted({str(v) for v in values if not is_missing(v)})
    mapping = {k: float(i) for i, k in enumerate(keys)}
    out = np.empty(len(values), dtype=float)
    for i, v in enumerate(values):
        out[i] = np.nan if is_missing(v) else mapping[str(v)]
    return out


def infer_column_type(values, categorical_threshold: int = 20) -> str:
    """Reference type inference; returns the ColumnType *value* string
    (``"numeric"``/``"categorical"``/``"text"``/``"empty"``) so this
    module stays import-independent of ``repro.dataframe``."""
    non_missing = [v for v in values if not is_missing(v)]
    if not non_missing:
        return "empty"
    if all(coerce_number(v) is not None for v in non_missing):
        return "numeric"
    distinct = {str(v) for v in non_missing}
    if len(distinct) <= max(categorical_threshold, int(0.05 * len(non_missing))):
        return "categorical"
    return "text"


def distinct_strings(cells) -> set:
    """Distinct non-missing values as strings (``Table.distinct_values``)."""
    return {str(v) for v in cells if not is_missing(v)}


def count_non_missing(values) -> int:
    return sum(1 for v in values if not is_missing(v))


def normalize_strings(values) -> set:
    """The containment normalization: ``strip().lower()`` of each value."""
    return {v.strip().lower() for v in values}
