"""Batch MinHash signing.

The scalar oracle (``tests/kernels/reference_bulk.py``) builds one
``(num_values, num_perm)`` permutation matrix per column.  The kernels
keep that exact uint64 expression —
``(h * a + b) mod p mod 2^32`` with numpy wraparound semantics, so
signatures stay byte-identical — but evaluate it for **many columns per
call**: all hashed columns are concatenated, permuted in bounded-memory
chunks, and reduced per column with ``np.minimum.reduceat``.  One numpy
dispatch per chunk instead of one per column is where the batch win
comes from on wide corpora (thousands of short columns).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.reference import MAX_HASH, MERSENNE

__all__ = ["empty_signature", "minhash_from_hashes", "minhash_many"]

#: Bound on the permutation-matrix intermediate, in elements (uint64);
#: 16K elements ≈ 128 KiB so the chunk plus its temporaries stays
#: L2-resident instead of streaming through DRAM.  Swept empirically:
#: 1<<14 runs ~3× faster than a 1<<18 budget and ~6× faster than 1<<22
#: on a 9000-column corpus-shaped workload.
_CHUNK_ELEMENTS = 1 << 14

_U64_MERSENNE = np.uint64(MERSENNE)
_U64_MAX_HASH = np.uint64(MAX_HASH)
_U64_SHIFT = np.uint64(61)


def empty_signature(num_perm: int) -> np.ndarray:
    """Signature of the empty value set (all slots at the hash max)."""
    return np.full(num_perm, MAX_HASH, dtype=np.uint64)


def _permute(hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``((h*a + b) mod p) mod 2^32`` elementwise, value for value what
    the oracle's expression computes, with the expensive modulos
    replaced: ``mod p`` for the Mersenne ``p = 2^61 - 1`` is a shift-add
    (``2^61 ≡ 1 mod p``) with one conditional subtract, and ``mod 2^32``
    is a mask."""
    y = hashes[:, None] * a[None, :]
    y += b[None, :]
    hi = y >> _U64_SHIFT
    y &= _U64_MERSENNE
    y += hi
    np.subtract(y, _U64_MERSENNE, out=y, where=y >= _U64_MERSENNE)
    y &= _U64_MAX_HASH
    return y


def _permute_min(hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise signature with the permutation matrix chunked so the
    intermediate never exceeds the element budget."""
    num_perm = a.shape[0]
    step = max(1, _CHUNK_ELEMENTS // num_perm)
    if hashes.shape[0] <= step:
        return _permute(hashes, a, b).min(axis=0)
    out = np.full(num_perm, MAX_HASH, dtype=np.uint64)
    for lo in range(0, hashes.shape[0], step):
        chunk = hashes[lo : lo + step]
        np.minimum(out, _permute(chunk, a, b).min(axis=0), out=out)
    return out


def minhash_from_hashes(
    hashes: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """MinHash signature of one pre-hashed column (empty → max-filled)."""
    if hashes.size == 0:
        return empty_signature(a.shape[0])
    return _permute_min(np.ascontiguousarray(hashes, dtype=np.uint64), a, b)


def minhash_many(hash_columns, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signatures for many pre-hashed columns in one batched evaluation.

    ``hash_columns`` is a sequence of uint64 arrays (one per column);
    returns a ``(len(hash_columns), num_perm)`` uint64 matrix whose rows
    equal :func:`minhash_from_hashes` of each column.
    """
    num_perm = a.shape[0]
    columns = list(hash_columns)
    if not columns:
        return np.empty((0, num_perm), dtype=np.uint64)
    lengths = np.array([h.shape[0] for h in columns], dtype=np.int64)
    out = np.empty((len(columns), num_perm), dtype=np.uint64)
    empty = lengths == 0
    if empty.any():
        out[empty] = MAX_HASH
    if not empty.all():
        # Group consecutive non-empty columns so each group's permutation
        # matrix fits the chunk budget, then min-reduce per column.
        live = [i for i, h in enumerate(columns) if h.shape[0]]
        budget = max(1, _CHUNK_ELEMENTS // num_perm)
        group: list = []
        group_size = 0

        def flush() -> None:
            nonlocal group, group_size
            if not group:
                return
            concat = np.concatenate([columns[i] for i in group])
            permuted = _permute(concat, a, b)
            starts = np.zeros(len(group), dtype=np.int64)
            np.cumsum(lengths[group][:-1], out=starts[1:])
            out[group] = np.minimum.reduceat(permuted, starts, axis=0)
            group, group_size = [], 0

        for i in live:
            size = int(lengths[i])
            if size > budget:
                flush()
                out[i] = _permute_min(columns[i], a, b)
                continue
            if group_size + size > budget:
                flush()
            group.append(i)
            group_size += size
        flush()
    return out
