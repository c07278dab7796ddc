"""Differential tests for batch MinHash signing.

The in-place Mersenne-reduction permutation and the reduceat-batched
many-column path must reproduce the reference matrix expression
``(h*a + b) mod p mod 2^32`` bit-for-bit, including the chunking
boundaries and empty-column edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from tests.kernels.reference_bulk import minhash_from_hashes as scalar_minhash
from tests.kernels.util import differential, minhash_many_oracle
from repro.kernels.minhash import _CHUNK_ELEMENTS
from repro.utils.rng import ensure_rng

uint64s = st.integers(min_value=0, max_value=(1 << 64) - 1)


def make_perms(num_perm: int, seed: int):
    """The exact (a, b) construction MinHasher uses."""
    rng = ensure_rng(seed)
    a = rng.integers(1, kernels.MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, kernels.MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


_WIDE = np.random.default_rng(0).integers(0, 1 << 64, size=40, dtype=np.uint64)
UNUSUAL_HASH_COLUMNS = {
    "empty": np.empty(0, dtype=np.uint64),
    "strided-view": _WIDE[::3],
    "single": _WIDE[:1],
}


@pytest.mark.parametrize("column", UNUSUAL_HASH_COLUMNS)
def test_minhash_unusual_column_is_scalar_result(column, hash_seed):
    """Empty, non-contiguous and one-value columns through both signing
    dispatchers: each row is the one-shot matrix expression's."""
    hashes = UNUSUAL_HASH_COLUMNS[column]
    a, b = make_perms(8, hash_seed)
    expected = scalar_minhash(hashes, a, b)
    assert np.array_equal(kernels.minhash_from_hashes(hashes, a, b), expected)
    columns = [hashes, hashes[:0], hashes]
    many, ref = differential(kernels.minhash_many, minhash_many_oracle, columns, a, b)
    assert np.array_equal(many, ref)
    assert np.array_equal(many[0], expected) and np.all(many[1] == kernels.MAX_HASH)


class TestMinhashFromHashes:
    @settings(max_examples=150, deadline=None)
    @given(
        hashes=st.lists(uint64s, max_size=200),
        num_perm=st.sampled_from((4, 7, 64)),
        seed=st.sampled_from((0, 1, 2)),
    )
    def test_matches_reference(self, hashes, num_perm, seed):
        a, b = make_perms(num_perm, seed)
        arr = np.array(hashes, dtype=np.uint64)
        vec, ref = differential(kernels.minhash_from_hashes, scalar_minhash, arr, a, b)
        assert np.array_equal(vec, ref)
        assert vec.dtype == np.uint64

    def test_empty_input_is_max_filled(self, hash_seed):
        a, b = make_perms(16, hash_seed)
        empty = np.empty(0, dtype=np.uint64)
        vec, ref = differential(kernels.minhash_from_hashes, scalar_minhash, empty, a, b)
        assert np.array_equal(vec, ref)
        assert np.all(vec == kernels.MAX_HASH)
        assert np.array_equal(kernels.empty_signature(16), vec)

    def test_uint64_extremes(self, hash_seed):
        a, b = make_perms(8, hash_seed)
        extremes = np.array(
            [
                0,
                1,
                kernels.MERSENNE - 1,
                kernels.MERSENNE,
                kernels.MERSENNE + 1,
                kernels.MAX_HASH,
                (1 << 64) - 1,
            ],
            dtype=np.uint64,
        )
        vec, ref = differential(kernels.minhash_from_hashes, scalar_minhash, extremes, a, b)
        assert np.array_equal(vec, ref)

    def test_chunk_boundary_sizes(self, hash_seed):
        """Sizes straddling the chunk budget so the chunked min-reduce
        path is exercised on both sides of every split."""
        num_perm = 16
        step = max(1, _CHUNK_ELEMENTS // num_perm)
        rng = np.random.default_rng(hash_seed)
        a, b = make_perms(num_perm, hash_seed)
        for size in (step - 1, step, step + 1, 2 * step + 3):
            hashes = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
            vec, ref = differential(kernels.minhash_from_hashes, scalar_minhash, hashes, a, b)
            assert np.array_equal(vec, ref), size

    def test_million_row_column(self):
        """The 10^6-row adversarial case: a column far past every chunk
        boundary still matches the reference's one-shot matrix."""
        rng = np.random.default_rng(0)
        hashes = rng.integers(0, 1 << 64, size=1_000_000, dtype=np.uint64)
        a, b = make_perms(4, 0)
        vec, ref = differential(kernels.minhash_from_hashes, scalar_minhash, hashes, a, b)
        assert np.array_equal(vec, ref)


class TestMinhashMany:
    @settings(max_examples=75, deadline=None)
    @given(
        columns=st.lists(st.lists(uint64s, max_size=60), max_size=12),
        seed=st.sampled_from((0, 1, 2)),
    )
    def test_matches_per_column_reference(self, columns, seed):
        a, b = make_perms(8, seed)
        arrays = [np.array(c, dtype=np.uint64) for c in columns]
        vec, ref = differential(kernels.minhash_many, minhash_many_oracle, arrays, a, b)
        assert vec.shape == ref.shape == (len(columns), 8)
        assert np.array_equal(vec, ref)

    def test_rows_equal_single_column_kernel(self, hash_seed):
        a, b = make_perms(16, hash_seed)
        rng = np.random.default_rng(hash_seed)
        arrays = [
            rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            for n in (0, 1, 5, 1000, 0, 3)
        ]
        many = kernels.minhash_many(arrays, a, b)
        for row, hashes in zip(many, arrays, strict=True):
            assert np.array_equal(
                row, kernels.minhash_from_hashes(hashes, a, b)
            )

    def test_no_columns(self, hash_seed):
        a, b = make_perms(8, hash_seed)
        vec, ref = differential(kernels.minhash_many, minhash_many_oracle, [], a, b)
        assert vec.shape == ref.shape == (0, 8)

    def test_all_empty_columns(self, hash_seed):
        a, b = make_perms(8, hash_seed)
        empties = [np.empty(0, dtype=np.uint64)] * 3
        vec, ref = differential(kernels.minhash_many, minhash_many_oracle, empties, a, b)
        assert np.array_equal(vec, ref)
        assert np.all(vec == kernels.MAX_HASH)

    def test_column_exceeding_group_budget(self, hash_seed):
        """One column bigger than the whole chunk budget forces the
        flush-then-chunk path between grouped small columns."""
        num_perm = 8
        budget = max(1, _CHUNK_ELEMENTS // num_perm)
        rng = np.random.default_rng(hash_seed)
        arrays = [
            rng.integers(0, 1 << 64, size=3, dtype=np.uint64),
            rng.integers(0, 1 << 64, size=budget + 17, dtype=np.uint64),
            rng.integers(0, 1 << 64, size=5, dtype=np.uint64),
        ]
        a, b = make_perms(num_perm, hash_seed)
        vec, ref = differential(kernels.minhash_many, minhash_many_oracle, arrays, a, b)
        assert np.array_equal(vec, ref)


class TestPermuteExactness:
    def test_matches_pinned_integer_expression(self, hash_seed):
        """The kernel against the written-out integer math, not just the
        reference implementation — so both cannot drift together."""
        a, b = make_perms(4, hash_seed)
        rng = np.random.default_rng(hash_seed)
        hashes = rng.integers(0, 1 << 64, size=64, dtype=np.uint64)
        signature = kernels.minhash_from_hashes(hashes, a, b)
        mersenne, modulus = kernels.MERSENNE, kernels.MAX_HASH + 1
        for j in range(4):
            expected = min(
                ((int(h) * int(a[j]) + int(b[j])) & ((1 << 64) - 1))
                % mersenne
                % modulus
                for h in hashes.tolist()
            )
            assert int(signature[j]) == expected
