"""From-scratch ML substrate (scikit-learn substitute).

Implements the models the paper's tasks rely on: CART decision trees,
random forests (classifier and regressor), linear models, Gaussian naive
Bayes, k-NN, k-means, the metrics and preprocessing the tasks use, a
holdout split, and a small AutoML searcher standing in for
TPOT/autosklearn/PyCaret.
"""

from repro.ml.metrics import (
    accuracy,
    precision_recall_f1,
    f1_score,
    mean_absolute_error,
)
from repro.ml.preprocessing import (
    LabelEncoder,
    Imputer,
    prepare_features,
)
from repro.ml.model_selection import train_test_split
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import RidgeRegression, LogisticRegression
from repro.ml.naive_bayes import GaussianNB
from repro.ml.knn import KNeighborsClassifier
from repro.ml.kmeans import KMeans
from repro.ml.automl import MiniAutoML

__all__ = [
    "accuracy",
    "precision_recall_f1",
    "f1_score",
    "mean_absolute_error",
    "LabelEncoder",
    "Imputer",
    "prepare_features",
    "train_test_split",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "RidgeRegression",
    "LogisticRegression",
    "GaussianNB",
    "KNeighborsClassifier",
    "KMeans",
    "MiniAutoML",
]
