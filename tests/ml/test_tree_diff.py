"""Differential suite: the array-native CART builder against the
recursive one it replaced (``reference_tree`` / ``reference_forest``).

Equality is exact everywhere — same split feature, same threshold bits,
same leaf values, same predictions, same task utility — because the new
builder keeps the reference's sort, RNG stream and float operation order.
The generated tables lean on what makes exact ties in the gain common in
METAM's augmented tables: integer-valued columns, duplicated columns,
constant columns, per-join-key constants and bootstrap duplicates.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import DiscoveryEngine
from repro.data import housing_scenario
from repro.data.scenarios import collisions_scenario, fairness_scenario
from repro.ml import forest, tree
from tests.ml import reference_forest, reference_tree

#: The seed of ``tests/core/test_golden_metam.py``.
SEED = 0
SHAPES = ("ties", "duplicate", "constant", "grouped", "bootstrap", "one_class")

tree_params = st.fixed_dictionaries(
    {
        "max_depth": st.sampled_from([1, 2, 3, 6, 8, 12]),
        "min_samples_split": st.sampled_from([2, 5, 10]),
        "min_samples_leaf": st.sampled_from([1, 2, 3, 5]),
        "max_features": st.sampled_from([None, "sqrt", 1, 2, 5]),
        "n_thresholds": st.sampled_from([1, 2, 4, 16, 1000]),
        "seed": st.integers(0, 2**31 - 1),
    }
)
forest_params = st.fixed_dictionaries(
    {
        "n_estimators": st.integers(1, 6),
        "max_depth": st.sampled_from([1, 3, 6, 8]),
        "min_samples_leaf": st.sampled_from([1, 3]),
        "max_features": st.sampled_from([None, "sqrt", 2]),
        "seed": st.integers(0, 2**31 - 1),
    }
)
tables = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 90),
    st.integers(1, 7),
    st.sets(st.sampled_from(SHAPES)),
)


def make_table(spec):
    """``(x, y_regression, y_labels, x_test)`` for a drawn table spec."""
    seed, n, n_features, shapes = spec
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    if "ties" in shapes:
        x = np.round(2.0 * x)
    if "grouped" in shapes:
        groups = rng.integers(0, 5, size=n)
        x[:, 0] = rng.normal(size=5)[groups]
    if "duplicate" in shapes:
        x[:, -1] = x[:, 0]
    if "constant" in shapes:
        x[:, n_features // 2] = 1.5
    y = 2.0 * x[:, 0] - x[:, -1] + rng.normal(scale=0.5, size=n)
    labels = (y > np.median(y)).astype(int) + 2 * (x[:, 0] > 1.0)
    if "one_class" in shapes:
        y, labels = np.full(n, 0.25), np.full(n, 3)
    if "bootstrap" in shapes:
        resample = rng.integers(0, n, size=n)
        x, y, labels = x[resample], y[resample], labels[resample]
    return x, y, labels, rng.normal(size=(25, n_features)).round(1)


def flatten(root):
    """The reference's node objects in the new tree's flat layout (values
    of internal nodes, which the reference does not have, left ``None``)."""
    feature, threshold, left, right, value = [], [], [], [], []

    def walk(node):
        index = len(feature)
        leaf = node.is_leaf
        feature.append(-1 if leaf else node.feature)
        threshold.append(np.nan if leaf else node.threshold)
        value.append(node.value)
        left.append(index if leaf else index + 1)
        right.append(index)
        if not leaf:
            walk(node.left)
            right[index] = len(feature)
            walk(node.right)

    walk(root)
    return feature, threshold, left, right, value


def assert_same_tree(new, old):
    feature, threshold, left, right, value = flatten(old._root)
    assert new.feature_.tolist() == feature
    assert np.array_equal(new.threshold_, np.array(threshold), equal_nan=True)
    assert new.left_.tolist() == left
    assert new.right_.tolist() == right
    leaves = new.feature_ < 0
    assert new.value_[leaves].tolist() == [v for v in value if v is not None]
    assert new.depth() == old.depth()


def assert_same_array(new, old):
    assert new.dtype == old.dtype
    assert np.array_equal(new, old)


class TestTrees:
    @settings(max_examples=200, deadline=None)
    @given(spec=tables, params=tree_params)
    def test_regressor_identical(self, spec, params):
        x, y, _labels, x_test = make_table(spec)
        new = tree.DecisionTreeRegressor(**params).fit(x, y)
        old = reference_tree.DecisionTreeRegressor(**params).fit(x, y)
        assert_same_tree(new, old)
        assert_same_array(new.predict(x_test), old.predict(x_test))
        assert_same_array(new.predict(x), old.predict(x))

    @settings(max_examples=200, deadline=None)
    @given(spec=tables, params=tree_params)
    def test_classifier_identical(self, spec, params):
        x, _y, labels, x_test = make_table(spec)
        new = tree.DecisionTreeClassifier(**params).fit(x, labels)
        old = reference_tree.DecisionTreeClassifier(**params).fit(x, labels)
        assert_same_tree(new, old)
        assert np.array_equal(new.classes_, old.classes_)
        assert_same_array(new.predict(x_test), old.predict(x_test))
        assert_same_array(new.predict_proba(x_test), old.predict_proba(x_test))

    def test_string_labels(self):
        x, _y, labels, x_test = make_table((7, 60, 3, {"ties"}))
        names = np.array(["low", "mid", "high", "top"])[labels]
        new = tree.DecisionTreeClassifier(seed=1).fit(x, names)
        old = reference_tree.DecisionTreeClassifier(seed=1).fit(x, names)
        assert_same_tree(new, old)
        assert_same_array(new.predict(x_test), old.predict(x_test))
        assert_same_array(new.predict_proba(x_test), old.predict_proba(x_test))

    def test_single_row(self):
        for module in (tree, reference_tree):
            model = module.DecisionTreeRegressor().fit([[1.0, 2.0]], [3.0])
            assert model.depth() == 0
            assert model.predict([[0.0, 0.0]]).tolist() == [3.0]

    @pytest.mark.parametrize("max_features", [None, "sqrt", 2])
    def test_no_feature_columns(self, max_features):
        x, y = np.empty((5, 0)), np.arange(5.0)
        for module in (tree, reference_tree):
            model = module.DecisionTreeRegressor(max_features=max_features).fit(x, y)
            assert model.depth() == 0
            assert model.predict(x).tolist() == [2.0] * 5


class TestForests:
    @settings(max_examples=60, deadline=None)
    @given(spec=tables, params=forest_params)
    def test_regressor_identical(self, spec, params):
        x, y, _labels, x_test = make_table(spec)
        new = forest.RandomForestRegressor(**params).fit(x, y)
        old = reference_forest.RandomForestRegressor(**params).fit(x, y)
        for new_tree, old_tree in zip(new.trees_, old.trees_, strict=True):
            assert_same_tree(new_tree, old_tree)
        assert_same_array(new.predict(x_test), old.predict(x_test))
        assert_same_array(new.feature_importances(), old.feature_importances())

    @settings(max_examples=60, deadline=None)
    @given(spec=tables, params=forest_params)
    def test_classifier_identical(self, spec, params):
        x, _y, labels, x_test = make_table(spec)
        new = forest.RandomForestClassifier(**params).fit(x, labels)
        old = reference_forest.RandomForestClassifier(**params).fit(x, labels)
        for new_tree, old_tree in zip(new.trees_, old.trees_, strict=True):
            assert_same_tree(new_tree, old_tree)
            assert np.array_equal(new_tree.classes_, old_tree.classes_)
        assert_same_array(new.predict(x_test), old.predict(x_test))
        assert_same_array(new.predict_proba(x_test), old.predict_proba(x_test))
        assert_same_array(new.feature_importances(), old.feature_importances())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_estimators=st.sampled_from([2, 4, 6]))
    def test_tied_votes_go_to_the_smallest_label(self, seed, n_estimators):
        """Labels independent of the features and an even number of shallow
        trees: most test rows get a split vote."""
        rng = np.random.default_rng(seed)
        x, labels = rng.normal(size=(40, 3)), rng.integers(0, 3, size=40) * 5 - 5
        x_test = rng.normal(size=(60, 3))
        params = dict(n_estimators=n_estimators, max_depth=2, seed=seed)
        new = forest.RandomForestClassifier(**params).fit(x, labels)
        old = reference_forest.RandomForestClassifier(**params).fit(x, labels)
        votes = np.stack([t.predict(x_test) for t in new.trees_])
        counts = np.sort((votes[:, :, None] == new.classes_).sum(axis=0), axis=1)
        assume(len(new.classes_) > 1 and (counts[:, -1] == counts[:, -2]).any())
        assert_same_array(new.predict(x_test), old.predict(x_test))
        assert_same_array(new.predict_proba(x_test), old.predict_proba(x_test))


SCENARIOS = {
    "classification": (housing_scenario, "repro.tasks.classification", "RandomForestClassifier"),
    "regression": (collisions_scenario, "repro.tasks.regression", "RandomForestRegressor"),
    "fairness": (fairness_scenario, "repro.tasks.fairness", "RandomForestClassifier"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_task_utilities_identical_on_golden_scenarios(name, monkeypatch):
    """The golden housing scenario (and its regression and fairness
    siblings at the same seed): the task's utility of the base table, of
    the base plus one candidate (the first four and the planted ones),
    and of all of those at once is the same float with either forest."""
    make_scenario, module, forest_name = SCENARIOS[name]
    scenario = make_scenario(seed=SEED)
    prepared = DiscoveryEngine(corpus=scenario.corpus).prepare(scenario.base, seed=SEED)
    planted = [c for c in prepared if c.aug_id.split("#")[1] in scenario.truth_columns]
    candidates = prepared[:4] + planted
    queried = [scenario.base]
    everything = scenario.base
    for candidate in candidates:
        queried.append(candidate.aug.apply(scenario.base, scenario.base, scenario.corpus))
        everything = candidate.aug.apply(everything, scenario.base, scenario.corpus)
    queried.append(everything)
    new = [scenario.task.utility(table) for table in queried]
    monkeypatch.setattr(f"{module}.{forest_name}", getattr(reference_forest, forest_name))
    old = [scenario.task.utility(table) for table in queried]
    assert new == old
    assert len(set(new)) > 1
