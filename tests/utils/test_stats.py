"""Tests for the statistical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    entropy_discrete,
    fisher_z_pvalue,
    mutual_information,
    partial_correlation,
    pearson,
    spearman,
)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_input_is_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_nan_rows_dropped(self):
        x = [1.0, 2.0, np.nan, 4.0]
        y = [1.0, 2.0, 100.0, 4.0]
        assert pearson(x, y) == pytest.approx(1.0)

    def test_too_few_samples(self):
        assert pearson([1.0], [2.0]) == 0.0

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded(self, xs):
        rng = np.random.default_rng(0)
        ys = rng.normal(size=len(xs))
        assert -1.0 <= pearson(xs, ys) <= 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_infinite_cells_are_dropped_like_nan(self, rows):
        x = np.array([r[0] for r in rows], dtype=float)
        y = np.array([r[1] for r in rows], dtype=float)
        with np.errstate(all="ignore"):
            r = pearson(x, y)
            as_nan = pearson(
                np.where(np.isinf(x), np.nan, x), np.where(np.isinf(y), np.nan, y)
            )
        assert math.isfinite(r) and -1.0 <= r <= 1.0
        assert r == as_nan

    def test_one_infinite_cell_does_not_read_as_perfect_correlation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        without = pearson(x[1:], y[1:])
        x[0] = np.inf
        assert pearson(x, y) == without
        assert abs(without) < 0.5

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, xs):
        rng = np.random.default_rng(1)
        ys = rng.normal(size=len(xs))
        assert pearson(xs, ys) == pytest.approx(pearson(ys, list(xs)))


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        x = np.arange(1.0, 11.0)
        assert spearman(x, x**3) == pytest.approx(1.0)

    def test_ties_handled(self):
        assert -1.0 <= spearman([1, 1, 2, 2], [4, 4, 1, 1]) <= 1.0

    def test_degenerate(self):
        assert spearman([], []) == 0.0


class TestEntropy:
    def test_uniform_two_classes(self):
        assert entropy_discrete([0, 1]) == pytest.approx(np.log(2))

    def test_single_class_zero(self):
        assert entropy_discrete([7, 7, 7]) == 0.0

    def test_more_classes_more_entropy(self):
        assert entropy_discrete([0, 1, 2, 3]) > entropy_discrete([0, 0, 1, 1])


class TestMutualInformation:
    def test_identical_high(self):
        x = np.random.default_rng(0).normal(size=200)
        assert mutual_information(x, x) > 0.5

    def test_independent_low(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        assert mutual_information(x, y) < 0.2

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert mutual_information(rng.normal(size=50), rng.normal(size=50)) >= 0.0

    def test_tiny_sample_zero(self):
        assert mutual_information([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_dependence_detected(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=300)
        y = x + rng.normal(scale=0.1, size=300)
        z = rng.normal(size=300)
        assert mutual_information(x, y) > mutual_information(x, z)


class TestPartialCorrelation:
    def test_confounder_removed(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=500)
        x = z + rng.normal(scale=0.1, size=500)
        y = z + rng.normal(scale=0.1, size=500)
        data = np.column_stack([x, y, z])
        raw = partial_correlation(data, 0, 1)
        conditioned = partial_correlation(data, 0, 1, cond=(2,))
        assert raw > 0.9
        assert abs(conditioned) < 0.2

    def test_direct_link_survives(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        y = x + rng.normal(scale=0.2, size=500)
        z = rng.normal(size=500)
        data = np.column_stack([x, y, z])
        assert partial_correlation(data, 0, 1, cond=(2,)) > 0.8


class TestFisherZ:
    def test_strong_correlation_significant(self):
        assert fisher_z_pvalue(0.9, 100) < 0.001

    def test_zero_correlation_not_significant(self):
        assert fisher_z_pvalue(0.0, 100) == pytest.approx(1.0)

    def test_small_sample_conservative(self):
        assert fisher_z_pvalue(0.9, 3) == 1.0

    def test_pvalue_in_unit_interval(self):
        for r in (-0.99, -0.5, 0.0, 0.5, 0.99):
            p = fisher_z_pvalue(r, 30)
            assert 0.0 <= p <= 1.0

    def test_more_samples_more_significant(self):
        assert fisher_z_pvalue(0.3, 200) < fisher_z_pvalue(0.3, 20)
