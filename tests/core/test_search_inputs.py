"""Malformed search inputs get a ``ValueError`` that names them, before any
query is spent — never a raw numpy message from deep inside a round."""

import numpy as np
import pytest

from repro.core import Metam, MetamConfig, QualityScorer
from repro.core.clustering import singleton_clusters
from repro.dataframe import Table
from tests.core.test_nonfinite_inputs import HalfTask, candidates_with

BASE = Table("b", {"x": [1.0, 2.0]})


def metam(vectors):
    return Metam(candidates_with(vectors), BASE, {}, HalfTask(), MetamConfig(query_budget=5))


@pytest.mark.parametrize(
    "vectors, culprit, shape",
    [
        ([[], [], []], "aug0", r"\(0,\)"),  # zero width
        ([[0.1], [0.2, 0.3], [0.4]], "aug1", r"\(2,\)"),  # mixed lengths
        ([[0.1, 0.2], [0.3, 0.4], [0.5]], "aug2", r"\(1,\)"),
        ([[0.1, 0.2], [], [0.5, 0.6]], "aug1", r"\(0,\)"),
        ([[[0.1, 0.2]], [[0.3, 0.4]]], "aug0", r"\(1, 2\)"),  # 2-D vectors
        ([[0.1, 0.2], [[0.3, 0.4]]], "aug1", r"\(1, 2\)"),
        ([0.5, 0.6], "aug0", r"\(\)"),  # scalars
    ],
)
def test_metam_names_the_first_malformed_profile_vector(vectors, culprit, shape):
    with pytest.raises(ValueError, match=rf"1-D and share one length >= 1; candidate '{culprit}' has shape {shape}"):
        metam(vectors)


def test_one_profile_is_enough():
    result = metam([[0.1], [0.5], [0.9]]).run()
    assert result.utility == 0.5


def test_wellformed_vectors_stack_as_before():
    vectors = np.random.default_rng(0).uniform(size=(7, 4))
    searcher = metam(vectors)
    assert searcher._profiles.dtype == float
    assert np.array_equal(searcher._profiles, np.vstack(list(vectors)))


@pytest.mark.parametrize(
    "alpha", [float("nan"), float("inf"), -1.0, -0.5, True, None, "1"],
)
def test_scorer_rejects_unusable_ridge_alpha_at_construction(alpha):
    # A negative alpha used to surface only at the ``min_fit_samples``-th
    # update, in the middle of a search; NaN never surfaced at all.
    profiles = np.array([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError, match="ridge_alpha must be a finite number >= 0"):
        QualityScorer(profiles, singleton_clusters(profiles), ridge_alpha=alpha)


@pytest.mark.parametrize("alpha", [0, 0.0, 1, 2.5, np.float64(0.5)])
def test_scorer_accepts_finite_non_negative_ridge_alpha(alpha):
    profiles = np.random.default_rng(1).uniform(size=(6, 3))
    scorer = QualityScorer(profiles, singleton_clusters(profiles), ridge_alpha=alpha)
    for index, gain in enumerate([0.1, 0.4, 0.0, 0.3, 0.2]):
        scorer.update(index, gain)
    assert np.isfinite(scorer.weights).all()
    assert scorer.weights.sum() == pytest.approx(1.0)
