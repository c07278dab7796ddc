"""Linear models: ridge regression (closed form) and logistic regression.

Ridge is also the estimator behind METAM's profile-importance weights
(Lemma 4 analyzes exactly this closed-form estimator).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative


class RidgeRegression:
    """L2-regularized least squares, solved in closed form."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        self.alpha = check_non_negative(alpha, "alpha")
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = 0.0

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
        if self.fit_intercept:
            x_mean = x.mean(axis=0)
            y_mean = y.mean()
            xc = x - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(x.shape[1])
            y_mean = 0.0
            xc, yc = x, y
        gram = xc.T @ xc + self.alpha * np.eye(x.shape[1])
        self.coef_ = np.linalg.solve(gram, xc.T @ yc)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, x) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("predict called before fit")
        return np.asarray(x, dtype=float) @ self.coef_ + self.intercept_


class LogisticRegression:
    """Binary logistic regression trained with full-batch gradient descent."""

    def __init__(
        self,
        learning_rate: float = 0.1,
        n_iter: int = 200,
        l2: float = 1e-3,
        fit_intercept: bool = True,
    ):
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = 0.0
        self.classes_ = None

    @staticmethod
    def _sigmoid(z):
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) != 2:
            raise ValueError(
                f"LogisticRegression is binary; got {len(self.classes_)} classes"
            )
        target = (y == self.classes_[1]).astype(float)
        # Standardize internally for stable gradients.
        self._mu = x.mean(axis=0)
        std = x.std(axis=0)
        self._sigma = np.where(std == 0, 1.0, std)
        xs = (x - self._mu) / self._sigma

        n, d = xs.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.n_iter):
            p = self._sigmoid(xs @ w + b)
            grad_w = xs.T @ (p - target) / n + self.l2 * w
            w -= self.learning_rate * grad_w
            if self.fit_intercept:
                b -= self.learning_rate * float(np.mean(p - target))
        self.coef_ = w
        self.intercept_ = b
        return self

    def predict_proba(self, x) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("predict called before fit")
        xs = (np.asarray(x, dtype=float) - self._mu) / self._sigma
        p1 = self._sigmoid(xs @ self.coef_ + self.intercept_)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, x) -> np.ndarray:
        p = self.predict_proba(x)[:, 1]
        return np.where(p >= 0.5, self.classes_[1], self.classes_[0])
