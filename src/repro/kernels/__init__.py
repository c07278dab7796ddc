"""Numpy-backed columnar batch kernels.

Every hot per-value loop in the library (stable hashing, MinHash
signing, coercion, distinct/containment estimation) routes through this
package.  Each kernel has a retained scalar reference implementation in
:mod:`repro.kernels.reference` — the executable specification that the
differential suite (``tests/kernels/``) pins the vectorized paths
against — and the whole library can be forced back onto the reference
path at runtime:

* environment: ``REPRO_KERNELS=reference`` (read once at import);
* code: :func:`set_mode` / the :func:`force_mode` context manager.

Vectorized kernels are *exactness-preserving*: inputs outside a fast
path's preconditions fall back to the reference automatically, so mode
only ever changes speed, never results.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = [
    "KERNEL_MODES",
    "active_mode",
    "caching_enabled",
    "force_mode",
    "set_mode",
    # hashing
    "HASH_VERSIONS",
    "MAX_HASH",
    "MERSENNE",
    "check_hash_version",
    "hash_strings",
    "stable_hash",
    "tabulation_tables",
    # minhash
    "empty_signature",
    "minhash_from_hashes",
    "minhash_many",
    # coercion
    "coerce_number",
    "encode_categorical",
    "infer_column_type",
    "is_missing",
    "to_float_array",
    "type_census",
    # sets
    "containment_count",
    "containment_count_arrays",
    "count_non_missing",
    "distinct_strings",
    "normalize_many",
    "normalize_strings",
    "sorted_unique_array",
    "reference",
]

KERNEL_MODES = ("vectorized", "reference")

_env = os.environ.get("REPRO_KERNELS", "vectorized").strip().lower()
_mode: str = _env if _env in KERNEL_MODES else "vectorized"


def active_mode() -> str:
    """The kernel mode every dispatcher consults per call."""
    return _mode


def caching_enabled() -> bool:
    """Whether derived-value caches (column arrays, distinct sets,
    per-key aggregates, shared profile samples) are in effect.

    Disabled in reference mode so ``REPRO_KERNELS=reference`` reproduces
    the pre-kernel library's cost model, not just its results — that is
    what the before/after benchmarks compare against.  Caches are pure
    memoization, so this flag never changes results either way.
    """
    return _mode != "reference"


def set_mode(mode: str) -> None:
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; valid: {KERNEL_MODES}")
    global _mode
    _mode = mode


@contextmanager
def force_mode(mode: str):
    """Temporarily pin the kernel mode (used by the differential suite
    to compute both sides of an equivalence check)."""
    previous = _mode
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(previous)


from repro.kernels import reference  # noqa: E402
from repro.kernels.coerce import (  # noqa: E402
    coerce_number,
    encode_categorical,
    infer_column_type,
    is_missing,
    to_float_array,
    type_census,
)
from repro.kernels.hashing import (  # noqa: E402
    HASH_VERSIONS,
    MAX_HASH,
    MERSENNE,
    check_hash_version,
    hash_strings,
    stable_hash,
    tabulation_tables,
)
from repro.kernels.minhash import (  # noqa: E402
    empty_signature,
    minhash_from_hashes,
    minhash_many,
)
from repro.kernels.sets import (  # noqa: E402
    containment_count,
    containment_count_arrays,
    count_non_missing,
    distinct_strings,
    normalize_many,
    normalize_strings,
    sorted_unique_array,
)
