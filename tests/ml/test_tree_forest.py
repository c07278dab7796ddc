"""Tests for decision trees and random forests on learnable datasets."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    accuracy,
    mean_absolute_error,
)


@pytest.fixture
def blob_data():
    """Two well-separated Gaussian blobs — trivially learnable."""
    rng = np.random.default_rng(0)
    x0 = rng.normal(0.0, 0.5, size=(60, 3))
    x1 = rng.normal(3.0, 0.5, size=(60, 3))
    x = np.vstack([x0, x1])
    y = np.array([0] * 60 + [1] * 60)
    return x, y


@pytest.fixture
def linear_data():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(150, 2))
    y = 3.0 * x[:, 0] - 2.0 * x[:, 1]
    return x, y


class TestDecisionTreeClassifier:
    def test_learns_separable_blobs(self, blob_data):
        x, y = blob_data
        model = DecisionTreeClassifier(max_depth=4, seed=0).fit(x, y)
        assert accuracy(y, model.predict(x)) >= 0.98

    def test_pure_node_is_leaf(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        model = DecisionTreeClassifier(seed=0).fit(x, y)
        assert model.depth() == 0

    def test_max_depth_respected(self, blob_data):
        x, y = blob_data
        model = DecisionTreeClassifier(max_depth=2, seed=0).fit(x, y)
        assert model.depth() <= 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            DecisionTreeClassifier().fit(np.array([[np.nan]]), np.array([0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.empty((0, 2)), np.array([]))

    def test_rejects_1d_x(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.array([1.0, 2.0]), np.array([0, 1]))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 1)))

    def test_predict_wrong_width(self, blob_data):
        x, y = blob_data
        model = DecisionTreeClassifier(seed=0).fit(x, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 99)))

    def test_predict_proba_rows_sum_to_one(self, blob_data):
        x, y = blob_data
        model = DecisionTreeClassifier(seed=0).fit(x, y)
        proba = model.predict_proba(x[:5])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_constant_features_yield_majority(self):
        x = np.zeros((10, 2))
        y = np.array([0] * 7 + [1] * 3)
        model = DecisionTreeClassifier(seed=0).fit(x, y)
        assert set(model.predict(x)) == {0}


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float) * 10.0
        model = DecisionTreeRegressor(max_depth=2, seed=0).fit(x, y)
        assert mean_absolute_error(y, model.predict(x)) < 0.5

    def test_linear_approximation(self, linear_data):
        x, y = linear_data
        model = DecisionTreeRegressor(max_depth=6, seed=0).fit(x, y)
        assert mean_absolute_error(y, model.predict(x)) < 0.5

    def test_leaf_value_is_mean(self):
        x = np.zeros((4, 1))
        y = np.array([1.0, 2.0, 3.0, 6.0])
        model = DecisionTreeRegressor(seed=0).fit(x, y)
        assert model.predict(np.zeros((1, 1)))[0] == pytest.approx(3.0)


class TestRandomForest:
    def test_classifier_beats_chance(self, blob_data):
        x, y = blob_data
        model = RandomForestClassifier(n_estimators=5, seed=0).fit(x, y)
        assert accuracy(y, model.predict(x)) >= 0.95

    def test_classifier_deterministic_given_seed(self, blob_data):
        x, y = blob_data
        p1 = RandomForestClassifier(n_estimators=3, seed=7).fit(x, y).predict(x)
        p2 = RandomForestClassifier(n_estimators=3, seed=7).fit(x, y).predict(x)
        assert np.array_equal(p1, p2)

    def test_predict_proba_shape(self, blob_data):
        x, y = blob_data
        model = RandomForestClassifier(n_estimators=3, seed=0).fit(x, y)
        proba = model.predict_proba(x[:4])
        assert proba.shape == (4, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_regressor_fits(self, linear_data):
        x, y = linear_data
        model = RandomForestRegressor(n_estimators=5, seed=0).fit(x, y)
        assert mean_absolute_error(y, model.predict(x)) < 0.6

    def test_feature_importances_sum_to_one(self, blob_data):
        x, y = blob_data
        model = RandomForestClassifier(n_estimators=5, seed=0).fit(x, y)
        imp = model.feature_importances()
        assert imp.shape == (3,)
        assert imp.sum() == pytest.approx(1.0)

    def test_informative_feature_ranked_higher(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] > 0).astype(int)  # only feature 0 matters
        model = RandomForestClassifier(n_estimators=8, max_features=None, seed=0)
        model.fit(x, y)
        imp = model.feature_importances()
        assert imp[0] > imp[1]

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


TREES = [DecisionTreeClassifier, DecisionTreeRegressor]
FORESTS = [RandomForestClassifier, RandomForestRegressor]


class TestTypedErrors:
    """Inputs and states that used to pass silently or die with an
    unrelated exception deep inside the builder."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("model", [DecisionTreeRegressor, RandomForestRegressor])
    def test_non_finite_regression_target_rejected(self, model, bad):
        x = np.arange(8.0).reshape(-1, 1)
        y = np.arange(8.0)
        y[3] = bad
        with pytest.raises(ValueError, match="y contains NaN/inf"):
            model().fit(x, y)

    def test_forest_validates_once_not_per_tree(self, linear_data, monkeypatch):
        from repro.ml import forest, tree

        calls = []

        def counting(x, y, target_dtype=None, _check=tree.check_xy):
            calls.append(len(x))
            return _check(x, y, target_dtype)

        monkeypatch.setattr(forest, "check_xy", counting)
        monkeypatch.setattr(tree, "check_xy", counting)
        x, y = linear_data
        RandomForestRegressor(n_estimators=4, seed=0).fit(x, y)
        assert calls == [len(x)]

    @pytest.mark.parametrize("bad", [0, -1, 0.5, 2.0, "log2", True])
    @pytest.mark.parametrize("model", TREES + FORESTS)
    def test_invalid_max_features_rejected_at_construction(self, model, bad):
        with pytest.raises(ValueError, match="max_features"):
            model(max_features=bad)

    @pytest.mark.parametrize("good", [None, "sqrt", 1, np.int64(2), 99])
    @pytest.mark.parametrize("model", TREES + FORESTS)
    def test_valid_max_features_fit(self, model, good, blob_data):
        x, y = blob_data
        assert len(model(max_features=good, seed=0).fit(x, y).predict(x)) == len(x)

    @pytest.mark.parametrize(
        "model, method",
        [
            (RandomForestClassifier, "predict"),
            (RandomForestClassifier, "predict_proba"),
            (RandomForestRegressor, "predict"),
            (RandomForestRegressor, "feature_importances"),
        ],
    )
    def test_forest_use_before_fit(self, model, method):
        args = () if method == "feature_importances" else (np.zeros((1, 1)),)
        with pytest.raises(RuntimeError, match="before fit"):
            getattr(model(), method)(*args)

    @pytest.mark.parametrize("model", TREES + FORESTS)
    def test_length_mismatch(self, model):
        with pytest.raises(ValueError, match="length mismatch"):
            model().fit(np.zeros((5, 2)), np.zeros(4))
