"""Differential + golden tests for the stable-hash kernels.

The vectorized v2 tabulation path must agree bit-for-bit with the
scalar :func:`repro.kernels.reference.stable_hash_v2` on every string,
and the v1 compatibility shim must reproduce the pinned blake2b hash
every stored signature was computed with — across the 3-seed matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from tests.kernels.util import Label, differential, hash_strings_oracle
from repro.kernels import reference

# Any unicode including surrogate-free astral chars, NULs, combining
# marks — everything a real CSV cell can smuggle in.
adversarial_text = st.text(
    alphabet=st.characters(codec="utf-8"), min_size=0, max_size=64
)


@pytest.mark.parametrize("version", kernels.HASH_VERSIONS)
@pytest.mark.parametrize(
    "column",
    [["\x00", "a\x00b", "\x00" * 8, ""], [Label("7"), Label(""), "7"], []],
    ids=["nul-embedded", "str-subclass", "empty"],
)
def test_hash_strings_unusual_column_is_scalar_result(column, version, hash_seed):
    hashes = kernels.hash_strings(column, version, seed=hash_seed)
    assert hashes.dtype == np.uint64 and hashes.shape == (len(column),)
    assert hashes.tolist() == [
        kernels.stable_hash(str(v), version, seed=hash_seed) for v in column
    ]
    assert np.array_equal(hashes, hash_strings_oracle(column, version, hash_seed))


class TestHashStringsDifferential:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(adversarial_text, max_size=50))
    def test_v1_matches_reference(self, values):
        vec, ref = differential(kernels.hash_strings, hash_strings_oracle, values, 1)
        assert np.array_equal(vec, ref)
        assert vec.dtype == np.uint64

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(adversarial_text, max_size=50),
        seed=st.sampled_from((0, 1, 2)),
    )
    def test_v2_matches_reference(self, values, seed):
        vec, ref = differential(
            kernels.hash_strings, hash_strings_oracle, values, 2, seed
        )
        assert np.array_equal(vec, ref)

    def test_empty_column(self, hash_seed):
        for version in kernels.HASH_VERSIONS:
            vec, ref = differential(
                kernels.hash_strings, hash_strings_oracle, [], version, hash_seed
            )
            assert vec.shape == ref.shape == (0,)

    def test_adversarial_fixed_columns(self, hash_seed):
        columns = [
            ["", "", ""],
            ["\x00", "a\x00b", "\x00" * 8],
            ["café", "CAFÉ", "café"],
            ["é中\U0001f600", "  ", "﻿"],
            ["x" * 10_000],
            [str(v) for v in (0.0, -0.0, float("inf"), float("-inf"))],
        ]
        for column in columns:
            for version in kernels.HASH_VERSIONS:
                vec, ref = differential(
                    kernels.hash_strings,
                    hash_strings_oracle,
                    column,
                    version,
                    hash_seed,
                )
                assert np.array_equal(vec, ref), (column, version)

    def test_bulk_v1_equals_scalar_reference_per_value(self):
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
        for version in kernels.HASH_VERSIONS:
            hashes = kernels.hash_strings(values, version, seed=hash_seed)
            assert int(hashes.max()) <= kernels.MAX_HASH

    def test_scalar_stable_hash_matches_column_kernel(self, hash_seed):
        values = ["", "a", "metam", "café"]
        for version in kernels.HASH_VERSIONS:
            column = kernels.hash_strings(values, version, seed=hash_seed)
            scalar = [
                kernels.stable_hash(v, version, seed=hash_seed)
                for v in values
            ]
            assert column.tolist() == scalar


class TestGoldenHashes:
    """Literal pinned values: a change to either hash family silently
    invalidates every stored signature, so these must break loudly."""

    V1_GOLDEN = {
        "": 309448485,
        "a": 3391310933,
        "metam": 2574110867,
        "café": 755221974,
        "é中\U0001f600": 1907318065,
        "x" * 1000: 3164373473,
    }
    V2_GOLDEN = {
        0: {"": 0, "a": 3299835821, "metam": 281631832, "café": 2245890220},
        1: {"": 0, "a": 913848103, "metam": 2790774127, "café": 2116416092},
        2: {"": 0, "a": 3846884741, "metam": 871735469, "café": 848138404},
    }

    def test_v1_blake2b_compatibility_pinned(self):
        for value, expected in self.V1_GOLDEN.items():
            assert reference.stable_hash_v1(value) == expected
            assert kernels.stable_hash(value, 1) == expected

    def test_v2_tabulation_pinned_across_seed_matrix(self):
        for seed, golden in self.V2_GOLDEN.items():
            for value, expected in golden.items():
                assert kernels.stable_hash(value, 2, seed=seed) == expected

    def test_tabulation_tables_pinned(self):
        import hashlib

        tables = kernels.tabulation_tables(0)
        assert tables.shape == (8, 256)
        digest = hashlib.sha256(
            np.ascontiguousarray(tables, dtype="<u8").tobytes()
        ).hexdigest()
        assert digest.startswith("f6ee748a8dd07ebe")

    def test_tables_differ_across_seeds(self):
        assert not np.array_equal(
            kernels.tabulation_tables(0), kernels.tabulation_tables(1)
        )


class TestHashVersionRegistry:
    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="hash_version"):
            kernels.check_hash_version(3)
        with pytest.raises(ValueError, match="hash_version"):
            kernels.hash_strings(["a"], hash_version=0)

    def test_registered_versions(self):
        assert kernels.HASH_VERSIONS == (1, 2)
        for version in kernels.HASH_VERSIONS:
            assert kernels.check_hash_version(version) == version
