"""Tests for label encoding, imputation and feature preparation."""

import numpy as np
import pytest

from repro.dataframe import Table
from repro.ml import Imputer, LabelEncoder, prepare_features


class TestLabelEncoder:
    def test_codes_index_the_sorted_classes(self):
        enc = LabelEncoder()
        codes = enc.fit_transform(["b", "a", "b"])
        assert [enc.classes_[c] for c in codes] == ["b", "a", "b"]

    def test_deterministic_ordering(self):
        codes = LabelEncoder().fit_transform(["z", "a"])
        assert list(codes) == [1, 0]

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            LabelEncoder().transform(["a"])


class TestImputer:
    def test_nan_replaced_by_mean(self):
        x = np.array([[1.0, np.nan], [3.0, 4.0]])
        out = Imputer().fit_transform(x)
        assert out[0, 1] == 4.0
        assert np.all(np.isfinite(out))

    def test_all_nan_column_becomes_zero(self):
        x = np.array([[np.nan], [np.nan]])
        out = Imputer().fit_transform(x)
        assert np.all(out == 0.0)

    def test_transform_uses_fit_stats(self):
        imp = Imputer().fit(np.array([[2.0], [4.0]]))
        out = imp.transform(np.array([[np.nan]]))
        assert out[0, 0] == 3.0

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            Imputer().transform(np.zeros((1, 1)))


class TestPrepareFeatures:
    @pytest.fixture
    def table(self):
        return Table(
            "t",
            {
                "num": [1.0, None, 3.0],
                "cat": ["a", "b", "a"],
                "target": [0, 1, 0],
            },
        )

    def test_shapes(self, table):
        x, y = prepare_features(table, ["num", "cat"], "target")
        assert x.shape == (3, 2)
        assert len(y) == 3

    def test_target_excluded_from_features(self, table):
        x, y = prepare_features(table, ["num", "cat", "target"], "target")
        assert x.shape == (3, 2)

    def test_matrix_is_finite(self, table):
        x = prepare_features(table, ["num", "cat"])
        assert np.all(np.isfinite(x))

    def test_no_features(self, table):
        x = prepare_features(table, [])
        assert x.shape == (3, 0)
