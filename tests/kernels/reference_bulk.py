"""Bulk hashing and MinHash oracles, moved verbatim from
``repro.kernels.reference`` when the kernel mode switch was deleted:
no dispatcher falls back to them, so they are test code.  The
differential suite compares ``kernels.hash_strings`` /
``kernels.minhash_from_hashes`` / ``kernels.minhash_many`` with these.
"""

import numpy as np

from repro.kernels.reference import MAX_HASH, MERSENNE, stable_hash_v1


def hash_strings(values) -> np.ndarray:
    """uint64 array of stable hashes, one per value, in input order."""
    return np.array(
        [stable_hash_v1(v) for v in values], dtype=np.uint64
    ).reshape(len(values))


def minhash_from_hashes(
    hashes: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """MinHash signature from pre-hashed values — the original
    ``MinHasher.signature`` matrix expression, verbatim."""
    num_perm = a.shape[0]
    if hashes.size == 0:
        return np.full(num_perm, MAX_HASH, dtype=np.uint64)
    permuted = (
        hashes[:, None] * a[None, :] + b[None, :]
    ) % np.uint64(MERSENNE) % np.uint64(MAX_HASH + 1)
    return permuted.min(axis=0)
