"""Column-collection arguments of the built-in tasks, and task content keys.

A bare string passed where a collection of column names belongs used to
be iterated into one-letter "columns" (``"zipcode"`` excluded ``z``,
``i``, ``p``… and kept ``zipcode`` as a feature); every constructor now
refuses it with a ``ValueError`` naming the argument.
"""

import pytest

from repro.tasks import (
    AutoMLTask,
    ClassificationTask,
    ClusteringTask,
    EntityLinkingTask,
    FairClassificationTask,
    HowToTask,
    KnowledgeBase,
    RegressionTask,
    WhatIfTask,
)
from repro.tasks.base import checked_columns, content_key

#: (label, build(**column arguments), the column arguments it takes).
CONSTRUCTORS = [
    ("regression", lambda **kw: RegressionTask("y", **kw), ("exclude_columns",)),
    ("classification", lambda **kw: ClassificationTask("y", **kw), ("exclude_columns",)),
    ("automl", lambda **kw: AutoMLTask("y", **kw), ("exclude_columns",)),
    ("clustering", lambda **kw: ClusteringTask("y", **kw), ("exclude_columns",)),
    (
        "fairness",
        lambda **kw: FairClassificationTask("y", "s", **kw),
        ("exclude_columns",),
    ),
    (
        "entity_linking",
        lambda **kw: EntityLinkingTask("m", "t", KnowledgeBase(), **kw),
        ("exclude_columns",),
    ),
    (
        "how_to",
        lambda **kw: HowToTask("o", **{"truth_causes": ("c",), **kw}),
        ("truth_causes", "base_columns", "exclude_columns"),
    ),
    (
        "what_if",
        lambda **kw: WhatIfTask("t", **{"truth_affected": ("a",), **kw}),
        ("truth_affected", "base_columns", "exclude_columns"),
    ),
]

CASES = [
    pytest.param(build, argument, id=f"{label}-{argument}")
    for label, build, arguments in CONSTRUCTORS
    for argument in arguments
]


@pytest.mark.parametrize("build, argument", CASES)
@pytest.mark.parametrize("bad", ["zipcode", b"zipcode", ["zipcode", 3], [None], 5])
def test_constructor_refuses_what_is_not_a_collection_of_names(build, argument, bad):
    with pytest.raises(ValueError, match=argument):
        build(**{argument: bad})


@pytest.mark.parametrize("build, argument", CASES)
@pytest.mark.parametrize("good", [("zipcode",), ["zipcode"], {"zipcode"}, frozenset({"zipcode"})])
def test_constructor_accepts_any_collection_of_names(build, argument, good):
    task = build(**{argument: good})
    assert set(getattr(task, argument)) >= {"zipcode"}


def test_a_bare_string_no_longer_splits_into_letters():
    with pytest.raises(ValueError, match="exclude_columns") as error:
        RegressionTask("rent", exclude_columns="zipcode")
    assert "['zipcode']" in str(error.value)
    assert RegressionTask("rent", exclude_columns=["zipcode"]).exclude_columns == {"zipcode"}


def test_checked_columns_keeps_order():
    assert checked_columns("base_columns", ["b", "a", "b"]) == ("b", "a", "b")
    assert checked_columns("base_columns", ()) == ()


class TestContentKey:
    def test_equal_construction_gives_equal_keys(self):
        one = RegressionTask("rent", exclude_columns=["zipcode", "id"])
        two = RegressionTask("rent", exclude_columns=("id", "zipcode"))
        assert content_key(one) is not None
        assert content_key(one) == content_key(two)
        assert hash(content_key(one)) == hash(content_key(two))

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"n_estimators": 6},
            {"max_depth": 7},
            {"test_fraction": 0.25},
            {"exclude_columns": ("zipcode", "id")},
            {"target_column": "price"},
        ],
    )
    def test_any_attribute_change_moves_the_key(self, change):
        base = dict(target_column="rent", exclude_columns=("zipcode",))
        assert content_key(RegressionTask(**base)) != content_key(
            RegressionTask(**{**base, **change})
        )

    def test_mutation_moves_the_key(self):
        task = ClusteringTask("score")
        before = content_key(task)
        task.seed = 3
        assert content_key(task) != before

    @pytest.mark.parametrize("left, right", [(1, 1.0), (1, True), (0.0, -0.0), (1, "1")])
    def test_values_equal_under_eq_stay_apart(self, left, right):
        one, two = ClusteringTask("score"), ClusteringTask("score")
        one.seed, two.seed = left, right
        assert content_key(one) != content_key(two)

    def test_list_and_tuple_attributes_keep_their_order(self):
        one = HowToTask("o", truth_causes=["c"], base_columns=("a", "b"))
        two = HowToTask("o", truth_causes=["c"], base_columns=("b", "a"))
        assert content_key(one) != content_key(two)

    def test_tasks_holding_objects_have_no_key(self):
        assert content_key(EntityLinkingTask("m", "t", KnowledgeBase())) is None
        task = RegressionTask("rent")
        task.extra = object()
        assert content_key(task) is None
        task.extra = (1, object())
        assert content_key(task) is None

    def test_only_library_classes_have_a_key(self):
        class Local(RegressionTask):
            pass

        assert content_key(Local("rent")) is None
        assert content_key(None) is None
        assert content_key(object()) is None
