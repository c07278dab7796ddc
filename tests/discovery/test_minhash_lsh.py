"""Tests for MinHash and LSH primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery import LshIndex, MinHasher


def agreement(sig_a, sig_b) -> float:
    """Share of equal slots: the MinHash estimate of Jaccard similarity."""
    return float(np.mean(sig_a == sig_b))


class TestMinHash:
    def test_signature_shape(self):
        sig = MinHasher(num_perm=32).signature({"a", "b"})
        assert sig.shape == (32,)

    def test_identical_sets_identical_signatures(self):
        h = MinHasher(num_perm=32)
        assert np.array_equal(h.signature({"a", "b"}), h.signature({"b", "a"}))

    def test_estimate_tracks_true_jaccard(self):
        h = MinHasher(num_perm=256, seed=0)
        a = {f"v{i}" for i in range(100)}
        b = {f"v{i}" for i in range(50, 150)}  # true jaccard = 50/150
        est = agreement(h.signature(a), h.signature(b))
        assert est == pytest.approx(len(a & b) / len(a | b), abs=0.12)

    def test_disjoint_sets_low_estimate(self):
        h = MinHasher(num_perm=128, seed=0)
        a = {f"a{i}" for i in range(50)}
        b = {f"b{i}" for i in range(50)}
        assert agreement(h.signature(a), h.signature(b)) < 0.1

    def test_empty_set_signature(self):
        sig = MinHasher(num_perm=16).signature(set())
        assert np.all(sig == sig[0])

    def test_num_perm_validation(self):
        with pytest.raises(ValueError):
            MinHasher(num_perm=2)

    @given(st.sets(st.text(min_size=1, max_size=5), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_self_similarity_is_one(self, values):
        h = MinHasher(num_perm=32, seed=0)
        sig = h.signature(values)
        assert agreement(sig, sig) == 1.0


class TestLsh:
    def test_insert_and_query_identical(self):
        h = MinHasher(num_perm=64)
        lsh = LshIndex(num_perm=64, bands=16)
        sig = h.signature({"a", "b", "c"})
        lsh.insert("item", sig)
        assert "item" in lsh.query(sig)

    def test_similar_sets_collide(self):
        h = MinHasher(num_perm=64, seed=0)
        lsh = LshIndex(num_perm=64, bands=32)
        a = {f"v{i}" for i in range(100)}
        b = {f"v{i}" for i in range(5, 100)}  # ~95% jaccard
        lsh.insert("a", h.signature(a))
        assert "a" in lsh.query(h.signature(b))

    def test_dissimilar_sets_rarely_collide(self):
        h = MinHasher(num_perm=64, seed=0)
        lsh = LshIndex(num_perm=64, bands=8)
        a = {f"a{i}" for i in range(100)}
        b = {f"b{i}" for i in range(100)}
        lsh.insert("a", h.signature(a))
        assert "a" not in lsh.query(h.signature(b))

    def test_duplicate_insert_rejected(self):
        h = MinHasher(num_perm=16)
        lsh = LshIndex(num_perm=16, bands=4)
        lsh.insert("x", h.signature({"a"}))
        with pytest.raises(ValueError):
            lsh.insert("x", h.signature({"b"}))

    def test_bands_must_divide(self):
        with pytest.raises(ValueError):
            LshIndex(num_perm=64, bands=7)

    @pytest.mark.parametrize("bands", [0, -4, True, 2.5, "4"], ids=repr)
    def test_bands_must_be_a_positive_int(self, bands):
        """0 used to raise ZeroDivisionError, -4 a numpy dtype error, and
        True was accepted."""
        with pytest.raises(ValueError, match="bands must be an int >= 1"):
            LshIndex(num_perm=64, bands=bands)

    @pytest.mark.parametrize("num_perm", [0, -64, True, 64.0], ids=repr)
    def test_num_perm_must_be_a_positive_int(self, num_perm):
        with pytest.raises(ValueError, match="num_perm must be an int >= 1"):
            LshIndex(num_perm=num_perm, bands=4)

    def test_len(self):
        h = MinHasher(num_perm=16)
        lsh = LshIndex(num_perm=16, bands=4)
        lsh.insert("x", h.signature({"a"}))
        lsh.insert("y", h.signature({"b"}))
        assert len(lsh) == 2

    def test_signature_of(self):
        h = MinHasher(num_perm=16)
        lsh = LshIndex(num_perm=16, bands=4)
        sig = h.signature({"a"})
        lsh.insert("x", sig)
        assert np.array_equal(lsh.signature_of("x"), sig)
        with pytest.raises(KeyError):
            lsh.signature_of("missing")


class TestKernelPathEdges:
    """Regression tests for the edges the pre-kernel code special-cased:
    the kernel-backed MinHasher must keep rejecting ``num_perm < 4`` and
    keep the empty-input signatures."""

    @pytest.mark.parametrize("num_perm", [0, 1, 2, 3])
    def test_num_perm_below_four_rejected(self, num_perm):
        with pytest.raises(ValueError, match="num_perm"):
            MinHasher(num_perm=num_perm)

    def test_num_perm_four_is_minimum(self):
        assert MinHasher(num_perm=4).signature({"a"}).shape == (4,)

    @pytest.mark.parametrize("empty", [set(), frozenset(), [], ()])
    def test_empty_input_signature(self, empty):
        from repro import kernels

        sig = MinHasher(num_perm=8).signature(empty)
        assert sig.shape == (8,)
        assert np.all(sig == kernels.MAX_HASH)

    def test_batch_empty_edges(self):
        from repro import kernels

        h = MinHasher(num_perm=8)
        assert h.signatures([]).shape == (0, 8)
        batch = h.signatures([set(), {"a"}, set()])
        assert np.all(batch[0] == kernels.MAX_HASH)
        assert np.all(batch[2] == kernels.MAX_HASH)
        assert np.array_equal(batch[1], h.signature({"a"}))
