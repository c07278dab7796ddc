"""MinHash signatures for approximate set similarity (Aurum/Lazo-style)."""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.utils.rng import ensure_rng

_MERSENNE = kernels.MERSENNE


def jaccard(a: set, b: set) -> float:
    """Exact Jaccard similarity of two sets."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


class MinHasher:
    """k-permutation MinHash over string sets.

    Uses the standard ``(a*h + b) mod p`` universal hash family.  The
    same ``(num_perm, seed)`` pair always produces comparable
    signatures.  Hashing and permutation run on the batch kernels
    (:mod:`repro.kernels`); values are hashed with the pinned blake2b
    hash every stored signature was computed with.
    """

    def __init__(self, num_perm: int = 64, seed: int = 0):
        if num_perm < 4:
            raise ValueError(f"num_perm must be >= 4, got {num_perm}")
        self.num_perm = num_perm
        rng = ensure_rng(seed)
        self._a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)

    def _hashes(self, values) -> np.ndarray:
        # Dedup keeps the permutation matrix small on repetitive columns
        # (order is irrelevant: the signature is a min over values).  The
        # index hands over distinct sets of str, which are taken as is.
        if not isinstance(values, (set, frozenset)):
            values = set(values)
        if not kernels.type_census(values) <= {str}:
            values = [str(v) for v in values]
        return kernels.hash_strings(values)

    def signature(self, values) -> np.ndarray:
        """MinHash signature (uint64 array of length ``num_perm``).

        Empty input yields the all-``MAX_HASH`` signature.
        """
        return kernels.minhash_from_hashes(self._hashes(values), self._a, self._b)

    def signatures(self, value_sets) -> np.ndarray:
        """Batch signatures: one row per value set in ``value_sets``.

        Equivalent to stacking :meth:`signature` of each set, but the
        permutation work is batched into a few large kernel calls.
        """
        return kernels.minhash_many(
            [self._hashes(values) for values in value_sets], self._a, self._b
        )

    @staticmethod
    def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Estimated Jaccard = fraction of matching signature slots."""
        if sig_a.shape != sig_b.shape:
            raise ValueError(
                f"signature shape mismatch: {sig_a.shape} vs {sig_b.shape}"
            )
        return float(np.mean(sig_a == sig_b))
