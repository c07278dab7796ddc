"""Tests for classification and regression metrics."""

import pytest

from repro.ml import accuracy, f1_score, mean_absolute_error, precision_recall_f1


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half(self):
        assert accuracy([1, 0], [1, 1]) == 0.5

    def test_empty(self):
        assert accuracy([], []) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1])


class TestF1:
    def test_perfect_binary(self):
        assert f1_score([1, 1, 0], [1, 1, 0]) == 1.0

    def test_all_wrong(self):
        assert f1_score([1, 1], [0, 0]) == 0.0

    def test_known_value(self):
        # tp=1 fp=1 fn=1 -> precision=recall=0.5 -> f1=0.5
        p, r, f1 = precision_recall_f1([1, 1, 0], [1, 0, 1])
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_macro_averages_classes(self):
        score = f1_score([0, 0, 1, 1], [0, 0, 1, 0], average="macro")
        # class 0: p=2/3, r=1 -> 0.8 ; class 1: p=1, r=0.5 -> 2/3
        assert score == pytest.approx((0.8 + 2 / 3) / 2)

    def test_unknown_average(self):
        with pytest.raises(ValueError):
            f1_score([1], [1], average="micro")

    def test_no_positive_predictions(self):
        p, r, f1 = precision_recall_f1([0, 0], [0, 0])
        assert f1 == 0.0


class TestRegressionMetrics:
    def test_mae(self):
        assert mean_absolute_error([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3)
