"""Differential + golden tests for the stable-hash kernel.

``kernels.hash_strings`` must reproduce, bit for bit, the pinned
blake2b hash every stored signature was computed with (the scalar
:func:`repro.kernels.reference.stable_hash_v1`), and a
:class:`~repro.discovery.MinHasher` over those hashes must equal the
scalar oracle's signature across the 3-seed matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.discovery import MinHasher
from repro.kernels import reference
from tests.kernels import reference_bulk
from tests.kernels.util import Label, differential, hash_strings_oracle

# Any unicode including surrogate-free astral chars, NULs, combining
# marks — everything a real CSV cell can smuggle in.
adversarial_text = st.text(
    alphabet=st.characters(codec="utf-8"), min_size=0, max_size=64
)


def assert_signature_matches_oracle(column, seed):
    """``MinHasher(seed)`` over ``column`` equals the oracle's MinHash of
    the scalar hashes of its distinct values (as strings)."""
    hasher = MinHasher(num_perm=8, seed=seed)
    expected = reference_bulk.minhash_from_hashes(
        hash_strings_oracle({str(v) for v in column}), hasher._a, hasher._b
    )
    assert np.array_equal(hasher.signature(column), expected)


@pytest.mark.parametrize(
    "column",
    [["\x00", "a\x00b", "\x00" * 8, ""], [Label("7"), Label(""), "7"], []],
    ids=["nul-embedded", "str-subclass", "empty"],
)
def test_hash_strings_unusual_column_is_scalar_result(column, hash_seed):
    hashes = kernels.hash_strings(column)
    assert hashes.dtype == np.uint64 and hashes.shape == (len(column),)
    assert hashes.tolist() == [kernels.stable_hash(str(v)) for v in column]
    assert np.array_equal(hashes, hash_strings_oracle(column))
    assert_signature_matches_oracle(column, hash_seed)


class TestHashStringsDifferential:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(adversarial_text, max_size=50))
    def test_matches_reference(self, values):
        vec, ref = differential(kernels.hash_strings, hash_strings_oracle, values)
        assert np.array_equal(vec, ref)
        assert vec.dtype == np.uint64

    def test_empty_column(self, hash_seed):
        vec, ref = differential(kernels.hash_strings, hash_strings_oracle, [])
        assert vec.shape == ref.shape == (0,)
        signature = MinHasher(num_perm=8, seed=hash_seed).signature([])
        assert np.all(signature == kernels.MAX_HASH)

    def test_adversarial_fixed_columns(self, hash_seed):
        columns = [
            ["", "", ""],
            ["\x00", "a\x00b", "\x00" * 8],
            ["café", "CAFÉ", "café"],
            ["é中\U0001f600", "  ", "﻿"],
            ["x" * 10_000],
            [str(v) for v in (0.0, -0.0, float("inf"), float("-inf"))],
        ]
        for column in columns:
            vec, ref = differential(kernels.hash_strings, hash_strings_oracle, column)
            assert np.array_equal(vec, ref), column
            assert_signature_matches_oracle(column, hash_seed)

    def test_bulk_equals_scalar_reference_per_value(self):
        """One ``frombuffer`` over the joined digests decodes each 4-byte
        group big-endian, as ``int.from_bytes(digest, "big")`` did."""
        values = ["", "a", "café", "é中\U0001f600", "\x00", "k3_00042", "-0.0"]
        values += [str(i) for i in range(300)]
        for column in ([], values[:1], values, set(values)):
            hashes = kernels.hash_strings(column, 1)
            assert hashes.dtype == np.uint64 and hashes.shape == (len(column),)
            assert hashes.tolist() == [
                reference.stable_hash_v1(v) for v in list(column)
            ]
        # Both halves of the 32-bit range occur, so byte order matters.
        assert (hashes >> np.uint64(31)).any() and not (hashes >> np.uint64(31)).all()

    def test_output_domain_is_32_bit(self, hash_seed):
        values = [f"v{i}" for i in range(200)]
        hashes = kernels.hash_strings(values)
        assert int(hashes.max()) <= kernels.MAX_HASH
        signature = MinHasher(num_perm=16, seed=hash_seed).signature(values)
        assert int(signature.max()) <= kernels.MAX_HASH

    def test_scalar_stable_hash_matches_column_kernel(self):
        values = ["", "a", "metam", "café"]
        column = kernels.hash_strings(values)
        assert column.tolist() == [kernels.stable_hash(v) for v in values]


class TestGoldenHashes:
    """Literal pinned values: a change to the hash silently invalidates
    every stored signature, so these must break loudly."""

    GOLDEN = {
        "": 309448485,
        "a": 3391310933,
        "metam": 2574110867,
        "café": 755221974,
        "é中\U0001f600": 1907318065,
        "x" * 1000: 3164373473,
    }

    def test_blake2b_hash_pinned(self):
        for value, expected in self.GOLDEN.items():
            assert reference.stable_hash_v1(value) == expected
            assert kernels.stable_hash(value) == expected
            assert kernels.hash_strings([value], 1).tolist() == [expected]


class TestHashVersionParameter:
    """``hash_strings`` keeps its second positional parameter for callers
    that name the family; ``1`` is the only value it takes."""

    @pytest.mark.parametrize("version", [0, 2, 3, "1", None])
    def test_any_other_version_rejected(self, version):
        with pytest.raises(ValueError, match="hash_version"):
            kernels.hash_strings(["a"], version)

    def test_version_one_is_the_default(self):
        values = ["a", "b", ""]
        assert np.array_equal(
            kernels.hash_strings(values, 1), kernels.hash_strings(values)
        )
