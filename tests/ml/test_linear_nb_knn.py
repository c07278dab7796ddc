"""Tests for linear models, naive Bayes and k-NN."""

import numpy as np
import pytest

from repro.ml import (
    GaussianNB,
    KNeighborsClassifier,
    LogisticRegression,
    RidgeRegression,
    accuracy,
)


@pytest.fixture
def blobs():
    rng = np.random.default_rng(0)
    x0 = rng.normal(-2.0, 0.7, size=(50, 2))
    x1 = rng.normal(2.0, 0.7, size=(50, 2))
    return np.vstack([x0, x1]), np.array([0] * 50 + [1] * 50)


class TestRidge:
    def test_recovers_linear_coefficients(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 2))
        y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 5.0
        model = RidgeRegression(alpha=1e-6).fit(x, y)
        assert model.coef_[0] == pytest.approx(2.0, abs=0.05)
        assert model.coef_[1] == pytest.approx(-1.0, abs=0.05)
        assert model.intercept_ == pytest.approx(5.0, abs=0.05)

    def test_regularization_shrinks(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 1))
        y = 3.0 * x[:, 0]
        weak = RidgeRegression(alpha=1e-6).fit(x, y)
        strong = RidgeRegression(alpha=1000.0).fit(x, y)
        assert abs(strong.coef_[0]) < abs(weak.coef_[0])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1.0)

    @pytest.mark.parametrize(
        "alpha", [float("nan"), float("inf"), -float("inf"), -1e-300, True, False,
                  "1.0", None, 1 + 0j, np.float64("nan")],
    )
    def test_unusable_alpha_rejected_by_name(self, alpha):
        # NaN used to pass ``alpha < 0`` and fit NaN coefficients; inf
        # built a NaN gram.
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            RidgeRegression(alpha=alpha)

    @pytest.mark.parametrize("alpha", [0, 0.0, 2, 1e-9, np.float64(3.0), np.int64(1)])
    def test_finite_non_negative_alpha_accepted(self, alpha):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = RidgeRegression(alpha=alpha).fit(x, np.array([1.0, 2.0, 3.5]))
        assert model.alpha == alpha
        assert np.isfinite(model.coef_).all()

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((1, 1)))

    def test_no_intercept(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([2.0, 4.0])
        model = RidgeRegression(alpha=1e-9, fit_intercept=False).fit(x, y)
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(2.0, abs=1e-3)


class TestLogistic:
    def test_separable(self, blobs):
        x, y = blobs
        model = LogisticRegression(n_iter=300).fit(x, y)
        assert accuracy(y, model.predict(x)) >= 0.95

    def test_proba_in_unit_interval(self, blobs):
        x, y = blobs
        model = LogisticRegression().fit(x, y)
        proba = model.predict_proba(x)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            LogisticRegression().fit(np.zeros((3, 1)), np.array([0, 1, 2]))

    def test_preserves_label_values(self):
        x = np.array([[-1.0], [1.0], [-1.1], [1.1]])
        y = np.array(["no", "yes", "no", "yes"])
        model = LogisticRegression(n_iter=200).fit(x, y)
        assert set(model.predict(x)) <= {"no", "yes"}


class TestGaussianNB:
    def test_separable(self, blobs):
        x, y = blobs
        model = GaussianNB().fit(x, y)
        assert accuracy(y, model.predict(x)) >= 0.95

    def test_proba_normalized(self, blobs):
        x, y = blobs
        proba = GaussianNB().fit(x, y).predict_proba(x[:3])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_three_classes(self):
        x = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [10.1]])
        y = np.array([0, 0, 1, 1, 2, 2])
        model = GaussianNB().fit(x, y)
        assert list(model.predict([[0.05], [5.05], [10.05]])) == [0, 1, 2]


class TestKNN:
    def test_separable(self, blobs):
        x, y = blobs
        model = KNeighborsClassifier(n_neighbors=3).fit(x, y)
        assert accuracy(y, model.predict(x)) >= 0.95

    def test_k_larger_than_dataset(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 0])
        model = KNeighborsClassifier(n_neighbors=10).fit(x, y)
        assert model.predict([[0.5]])[0] == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)

    def test_nearest_wins(self):
        x = np.array([[0.0], [10.0]])
        y = np.array(["a", "b"])
        model = KNeighborsClassifier(n_neighbors=1).fit(x, y)
        assert model.predict([[1.0]])[0] == "a"
