"""Numpy-backed columnar batch kernels.

Every hot per-value loop in the library (stable hashing, MinHash
signing, coercion, distinct values) routes through this
package.  Each dispatcher is "fast path when its precondition holds,
else the scalar function": inputs outside a fast path's preconditions
(exotic cell types, NUL-embedded strings) take the per-value loop in
:mod:`repro.kernels.reference`, so the result is exact on every input.
The differential suite (``tests/kernels/``) pins every fast path
against its scalar counterpart.  Stable hashing has one family, the
pinned blake2b hash every stored signature was computed with
(:mod:`repro.kernels.hashing`).
"""

from __future__ import annotations

from repro.kernels import reference
from repro.kernels.coerce import (
    coerce_number,
    encode_categorical,
    infer_column_type,
    is_missing,
    to_float_array,
    type_census,
)
from repro.kernels.hashing import MAX_HASH, MERSENNE, hash_strings, stable_hash
from repro.kernels.minhash import (
    empty_signature,
    minhash_from_hashes,
    minhash_many,
)
from repro.kernels.sets import (
    distinct_strings,
    float_domain,
    float_probe,
    normalize_many,
    normalize_strings,
)

__all__ = [
    # hashing
    "MAX_HASH",
    "MERSENNE",
    "hash_strings",
    "stable_hash",
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
    "distinct_strings",
    "float_domain",
    "float_probe",
    "normalize_many",
    "normalize_strings",
    "reference",
]
