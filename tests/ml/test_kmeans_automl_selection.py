"""Tests for k-means, the holdout split and MiniAutoML."""

import numpy as np
import pytest

from repro.ml import KMeans, MiniAutoML, accuracy, train_test_split
from repro.ml.naive_bayes import GaussianNB


@pytest.fixture
def three_blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0, 0], [10, 0], [0, 10]])
    points = np.vstack([rng.normal(c, 0.5, size=(30, 2)) for c in centers])
    return points


class TestKMeans:
    def test_finds_three_blobs(self, three_blobs):
        model = KMeans(n_clusters=3, seed=0).fit(three_blobs)
        # Each blob of 30 points should map to a single cluster.
        labels = model.labels_
        for start in (0, 30, 60):
            blob_labels = labels[start : start + 30]
            assert len(set(blob_labels.tolist())) == 1

    def test_inertia_decreases_with_k(self, three_blobs):
        i1 = KMeans(n_clusters=1, seed=0).fit(three_blobs).inertia_
        i3 = KMeans(n_clusters=3, seed=0).fit(three_blobs).inertia_
        assert i3 < i1

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=5).fit(np.zeros((3, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=1).fit(np.empty((0, 2)))


class TestModelSelection:
    def test_split_sizes(self):
        x = np.arange(10).reshape(-1, 1)
        y = np.arange(10)
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, test_fraction=0.3, seed=0)
        assert len(x_te) == 3 and len(x_tr) == 7

    def test_split_deterministic(self):
        x = np.arange(10).reshape(-1, 1)
        y = np.arange(10)
        a = train_test_split(x, y, seed=5)
        b = train_test_split(x, y, seed=5)
        assert np.array_equal(a[1], b[1])

    def test_split_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((2, 1)), np.zeros(2), test_fraction=1.5)

    def test_split_length_mismatch(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((3, 1)), np.zeros(2))

    def test_gaussian_nb_learnable_on_holdout(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.5, (30, 1)), rng.normal(2, 0.5, (30, 1))])
        y = np.array([0] * 30 + [1] * 30)
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, seed=0)
        assert accuracy(y_te, GaussianNB().fit(x_tr, y_tr).predict(x_te)) > 0.9


class TestMiniAutoML:
    def test_classification_beats_chance(self):
        rng = np.random.default_rng(1)
        x = np.vstack([rng.normal(-2, 0.6, (40, 2)), rng.normal(2, 0.6, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        automl = MiniAutoML(seed=0).fit(x, y)
        assert automl.best_score_ > 0.85
        assert automl.best_name_ is not None

    def test_multiclass_skips_logistic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        y = np.array([0, 1, 2] * 20)
        automl = MiniAutoML(seed=0).fit(x, y)
        assert automl.best_model_ is not None

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            MiniAutoML().predict(np.zeros((1, 2)))
