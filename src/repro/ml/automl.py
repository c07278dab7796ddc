"""MiniAutoML — a small model searcher standing in for TPOT/autosklearn.

Greedily evaluates several model families with a few hyperparameter
settings each on a holdout split and keeps the best.  From METAM's point
of view this is exactly what the paper's AutoML task is: an expensive
black-box whose score improves when informative features are augmented.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.metrics import accuracy
from repro.ml.model_selection import train_test_split
from repro.ml.naive_bayes import GaussianNB
from repro.ml.tree import DecisionTreeClassifier


def _classifier_space(seed):
    return [
        ("rf_small", lambda: RandomForestClassifier(n_estimators=5, max_depth=6, seed=seed)),
        ("rf_deep", lambda: RandomForestClassifier(n_estimators=8, max_depth=10, seed=seed)),
        ("tree", lambda: DecisionTreeClassifier(max_depth=8, seed=seed)),
        ("logreg", lambda: LogisticRegression(n_iter=150)),
        ("gnb", lambda: GaussianNB()),
        ("knn", lambda: KNeighborsClassifier(n_neighbors=5)),
    ]


class MiniAutoML:
    """Search over classifier families and keep the one with the best
    holdout accuracy.

    Parameters
    ----------
    budget:
        Number of candidate pipelines to evaluate (in listed order).
    """

    def __init__(self, budget: int = 6, seed=0):
        self.budget = max(1, budget)
        self.seed = seed
        self.best_model_ = None
        self.best_name_ = None
        self.best_score_ = None

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        x_tr, x_te, y_tr, y_te = train_test_split(
            x, y, test_fraction=0.3, seed=self.seed
        )
        self.best_score_ = -np.inf
        for name, factory in _classifier_space(self.seed)[: self.budget]:
            model = factory()
            try:
                model.fit(x_tr, y_tr)
            except ValueError:
                # E.g. logistic regression on >2 classes; skip that family.
                continue
            score = accuracy(y_te, model.predict(x_te))
            if score > self.best_score_:
                self.best_score_ = score
                self.best_model_ = model
                self.best_name_ = name
        if self.best_model_ is None:
            raise RuntimeError("no AutoML candidate could be fitted")
        return self

    def predict(self, x) -> np.ndarray:
        if self.best_model_ is None:
            raise RuntimeError("predict called before fit")
        return self.best_model_.predict(x)
