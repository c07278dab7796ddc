"""Whole-column stable hashing.

Two hash families, selected by ``hash_version``:

* **Version 1** — the pinned compatibility hash: ``blake2b(utf-8,
  digest_size=4)``, the function every stored v2 catalog signature was
  computed with.  blake2b itself cannot be vectorized from Python —
  the per-value digest is this version's hard floor (measured: a
  process-wide memo costs more in dict traffic than it saves on
  mostly-unique columns, so there is none).
* **Version 2** — the vectorized blake2-free path: seeded uint64
  tabulation hashing evaluated over the whole column's concatenated
  UTF-8 bytes with ``np.frombuffer`` + XOR segment reduction.  Opt-in
  per catalog (``hash_version=2``); artifacts are addressed by hash
  version, so v2-hashed stores never cross-contaminate v1 signatures.

Both versions produce values in the 32-bit MinHash domain, and both
have scalar forms in :mod:`repro.kernels.reference`
(``stable_hash_v1`` / ``stable_hash_v2``) that the differential suite
pins them against.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.kernels import reference
from repro.kernels.reference import MAX_HASH, MERSENNE, tabulation_tables

__all__ = [
    "HASH_VERSIONS",
    "MAX_HASH",
    "MERSENNE",
    "hash_strings",
    "stable_hash",
    "tabulation_tables",
]

#: Registered hash families.  Version 1 is the stored-artifact default.
HASH_VERSIONS = (1, 2)

#: Per-seed tabulation tables for hash_version 2 (16 KiB each).
_TAB_CACHE: dict = {}

_U64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U64_MIX = np.uint64(0xFF51AFD7ED558CCD)


def _tables(seed: int) -> np.ndarray:
    tables = _TAB_CACHE.get(seed)
    if tables is None:
        tables = _TAB_CACHE[seed] = tabulation_tables(seed)
    return tables


def check_hash_version(hash_version: int) -> int:
    if hash_version not in HASH_VERSIONS:
        raise ValueError(
            f"unknown hash_version {hash_version!r}; registered: {HASH_VERSIONS}"
        )
    return int(hash_version)


def stable_hash(value: str, hash_version: int = 1, seed: int = 0) -> int:
    """Scalar stable hash (both versions; exact kernel semantics)."""
    if hash_version == 1:
        return reference.stable_hash_v1(value)
    check_hash_version(hash_version)
    return reference.stable_hash_v2(value, _tables(seed))


def _hash_strings_v1(values) -> np.ndarray:
    # reference.stable_hash_v1 per value, with the big-endian decode of
    # all the 4-byte digests done in one frombuffer.
    blake2b = hashlib.blake2b
    digests = [blake2b(e, digest_size=4).digest() for e in map(str.encode, values)]
    return np.frombuffer(b"".join(digests), dtype=">u4").astype(np.uint64)


def _hash_strings_v2(values, seed: int) -> np.ndarray:
    tables = _tables(seed)
    encoded = [v.encode("utf-8") for v in values]
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    total = int(lengths.sum())
    n = len(values)
    if total == 0:
        mixed = np.zeros(n, dtype=np.uint64)
    else:
        data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        position = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
        # term_i = T[i & 7][byte_i] * (2 i + 1)  (uint64 wraparound),
        # exactly reference.stable_hash_v2's per-byte expression.
        terms = tables[position & 7, data]
        terms *= (2 * position.astype(np.uint64) + np.uint64(1))
        # XOR-reduce each value's byte range.  A trailing XOR-identity
        # dummy keeps every ``starts`` index valid (a zero-length value
        # at the end starts at ``total``); empty segments still yield
        # reduceat's element-at-start quirk and are patched below.
        terms = np.append(terms, np.uint64(0))
        mixed = np.bitwise_xor.reduceat(terms, starts)
        mixed[lengths == 0] = 0
    mixed = mixed * _U64_GOLDEN + lengths.astype(np.uint64)
    mixed ^= mixed >> np.uint64(33)
    mixed *= _U64_MIX
    mixed ^= mixed >> np.uint64(33)
    return mixed & np.uint64(MAX_HASH)


def hash_strings(values, hash_version: int = 1, seed: int = 0) -> np.ndarray:
    """uint64 hash of every string in ``values``, in input order.

    ``values`` must be an ordered collection of ``str``.  The output
    lands in the 32-bit MinHash domain for both hash versions.
    """
    values = list(values)
    check_hash_version(hash_version)
    if hash_version == 1:
        return _hash_strings_v1(values)
    return _hash_strings_v2(values, seed)
