"""Tests for RNG plumbing, tokenization and validation helpers."""

import numpy as np
import pytest

from repro.utils import (
    check_fraction,
    check_in_choices,
    check_non_negative,
    check_positive,
    ensure_rng,
    normalize_token,
    spawn_rng,
    tokenize,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = ensure_rng(42).integers(0, 100, 5)
        b = ensure_rng(42).integers(0, 100, 5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_single(self):
        child = spawn_rng(ensure_rng(0))
        assert isinstance(child, np.random.Generator)

    def test_spawn_many_independent(self):
        children = spawn_rng(ensure_rng(0), 3)
        assert len(children) == 3
        draws = [c.integers(0, 10**9) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = spawn_rng(ensure_rng(1)).integers(0, 10**9)
        b = spawn_rng(ensure_rng(1)).integers(0, 10**9)
        assert a == b


class TestText:
    def test_tokenize_splits_punctuation(self):
        assert tokenize("taxi_trips-2019") == ["taxi", "trips", "2019"]

    def test_tokenize_lowercases(self):
        assert tokenize("Crime Stats") == ["crime", "stats"]

    def test_tokenize_none(self):
        assert tokenize(None) == []

    def test_tokenize_numbers_kept(self):
        assert tokenize("zip 60601") == ["zip", "60601"]

    def test_normalize(self):
        assert normalize_token("  HeLLo ") == "hello"


class TestValidation:
    def test_fraction_ok(self):
        assert check_fraction(0.5, "x") == 0.5

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "x")
        with pytest.raises(ValueError):
            check_fraction(-0.1, "x")
        for bad in (float("nan"), True, "0.5", None):
            with pytest.raises(ValueError, match="x must be a number in"):
                check_fraction(bad, "x")

    def test_positive(self):
        assert check_positive(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_non_negative(self):
        assert check_non_negative(0, "x") == 0
        assert check_non_negative(2.5, "x") == 2.5
        for bad in (-1, float("nan"), float("inf"), True, "1", None):
            with pytest.raises(ValueError, match="x must be a finite number >= 0"):
                check_non_negative(bad, "x")

    def test_choices(self):
        assert check_in_choices("a", "x", {"a", "b"}) == "a"
        with pytest.raises(ValueError):
            check_in_choices("c", "x", {"a", "b"})
