"""Whole-column stable hashing.

One hash family: ``blake2b(utf-8, digest_size=4)``, big-endian, the
function every stored catalog signature was computed with.  Its values
land in the 32-bit MinHash domain.  blake2b itself cannot be vectorized
from Python — the per-value digest is the hard floor (measured: a
process-wide memo costs more in dict traffic than it saves on
mostly-unique columns, so there is none).  The column kernel decodes
all the digests in one ``frombuffer``; the differential suite pins it
against the scalar :func:`repro.kernels.reference.stable_hash_v1`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.kernels import reference
from repro.kernels.reference import MAX_HASH, MERSENNE

__all__ = [
    "MAX_HASH",
    "MERSENNE",
    "hash_strings",
    "stable_hash",
]


def stable_hash(value: str) -> int:
    """Scalar stable hash (exact kernel semantics)."""
    return reference.stable_hash_v1(value)


def hash_strings(values, hash_version: int = 1) -> np.ndarray:
    """uint64 hash of every string in ``values``, in input order.

    ``values`` must be an ordered collection of ``str``.  The output
    lands in the 32-bit MinHash domain.  ``hash_version`` is kept for
    callers that name the family; ``1`` is the only one.
    """
    if hash_version != 1:
        raise ValueError(f"unknown hash_version {hash_version!r}; the only one is 1")
    # reference.stable_hash_v1 per value, with the big-endian decode of
    # all the 4-byte digests done in one frombuffer.
    blake2b = hashlib.blake2b
    digests = [blake2b(e, digest_size=4).digest() for e in map(str.encode, values)]
    return np.frombuffer(b"".join(digests), dtype=">u4").astype(np.uint64)
