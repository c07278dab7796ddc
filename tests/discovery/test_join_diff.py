"""Differential suite: the join kernel against the per-row loops it
replaced (``reference_join``).

Equality is exact — same cells, same float bits, same matched-row counts —
on the tables that break joins in the wild: repeated keys (group sizes on
both sides of numpy's pairwise-summation boundaries: 1, 2–7, >= 8),
missing keys and cells in every spelling, numeric strings, keys equal
across types (``1``, ``1.0``, ``"1"``), signed zeros, infinities whose
mean is NaN, non-numeric bring columns, two-hop paths and empty tables.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Table
from repro.discovery import Augmentation, JoinPath, JoinStep, materialize_candidates
from tests.discovery import reference_join

#: The mean of inf and -inf (or past the float range) is exactly the
#: case under test; numpy says so on both sides.
pytestmark = pytest.mark.filterwarnings(
    "ignore:(invalid value|overflow) encountered in reduce:RuntimeWarning"
)

#: Key cells in classes that normalize to the same join key, plus every
#: spelling of a missing key.
KEY_CELLS = (
    1, 1.0, "1", " 1 ", np.int64(1), np.float64(1.0),
    "A", "a", " a", "b", "B ",
    0, 0.0, -0.0, "0", "-0.0", "0.0",
    2.5, "2.5", float("inf"), "inf", True,
    None, float("nan"), "", "   ",
)  # fmt: skip
NUMERIC_CELLS = (
    0.1, 0.2, 0.3, 1e16, -1e16, 1.0, 3, -7, 10**15, True, False,
    0.0, -0.0, "-0.0", 5e-324, 1.7976931348623157e308,
    float("inf"), float("-inf"), "inf", "nan", np.float32("nan"),
    "1.5", " 2 ", "1e3", "1_000", np.float64(0.7), np.int64(4), np.float32(0.1),
    None, float("nan"), "", "  ",
)  # fmt: skip
#: Exactly-``str`` key cells and exactly-``float``/``None`` numeric cells:
#: columns drawn only from these take the kernel's array fast paths.
STR_KEY_CELLS = (
    "1", " 1 ", "A", "a", " a", "b", "B ", "0", "-0.0", "2.5", "inf",
    "", "   ", "É", "é ", "ß", "\x00", "a\x00",
)  # fmt: skip
FLOAT_CELLS = (
    0.1, 0.2, 0.3, 1e16, -1e16, 1.0, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
    float("inf"), float("-inf"), None, float("nan"),
)  # fmt: skip
TEXT_CELLS = (
    "x", "y", " padded ", "Z", 7, 2.5, -0.0, Decimal("1.5"),
    np.float32("nan"), None, float("nan"), "", " ",
)  # fmt: skip
#: Rows per key: one side and the other of numpy's unrolled (< 8) and
#: pairwise (>= 8) summation paths, far enough in to round differently.
GROUP_SIZES = (0, 1, 1, 1, 2, 3, 7, 8, 9, 17, 130)


def column_of(cells):
    return st.lists(st.sampled_from(cells), min_size=0, max_size=12)


@st.composite
def keyed_tables(draw, name, key, value_cells, value_name="v", key_cells=KEY_CELLS):
    """A right-side table: per drawn key a drawn number of rows, shuffled."""
    keys = draw(st.lists(st.sampled_from(key_cells), min_size=0, max_size=6))
    rows = [k for k in keys for _ in range(draw(st.sampled_from(GROUP_SIZES)))]
    rows = draw(st.permutations(rows))
    values = draw(
        st.lists(st.sampled_from(value_cells), min_size=len(rows), max_size=len(rows))
    )
    return Table(name, {key: rows, value_name: values})


def bits(cells):
    """Cells as comparable text: repr tells -0.0 from 0.0 and one float
    from its neighbour, and (unlike ==) equates NaN with NaN."""
    return [(type(v).__name__, repr(v)) for v in cells]


def check_augmentation(steps, output_column, base, corpus):
    expected = reference_join.materialize(steps, output_column, base, corpus)
    matched, overlap = reference_join.overlap(expected)
    aug = Augmentation(JoinPath(steps), output_column)
    assert bits(aug.materialize(base, corpus)) == bits(expected)
    assert aug.overlap_fraction(base, corpus) == (overlap if expected else 0.0)
    kept = materialize_candidates(base, [aug], corpus)
    assert len(kept) == (matched > 0)
    if kept:
        assert kept[0].overlap == overlap
        assert bits(kept[0].values) == bits(expected)


class TestMaterialize:
    @settings(max_examples=200, deadline=None)
    @given(
        left=column_of(KEY_CELLS),
        right=keyed_tables("right", "k", NUMERIC_CELLS),
    )
    def test_numeric_column_matches_reference(self, left, right):
        base = Table("base", {"key": left})
        check_augmentation((JoinStep("key", "right", "k"),), "v", base, {"right": right})

    @settings(max_examples=200, deadline=None)
    @given(
        left=column_of(STR_KEY_CELLS),
        right=keyed_tables("right", "k", FLOAT_CELLS, key_cells=STR_KEY_CELLS),
    )
    def test_str_keys_and_float_cells_match_reference(self, left, right):
        """Both array fast paths at once: exactly-str keys on either side,
        an exactly-float/None bring column."""
        base = Table("base", {"key": left})
        check_augmentation((JoinStep("key", "right", "k"),), "v", base, {"right": right})

    @settings(max_examples=150, deadline=None)
    @given(
        left=column_of(KEY_CELLS),
        right=keyed_tables("right", "k", TEXT_CELLS),
    )
    def test_first_present_value_matches_reference(self, left, right):
        base = Table("base", {"key": left})
        check_augmentation((JoinStep("key", "right", "k"),), "v", base, {"right": right})

    @settings(max_examples=150, deadline=None)
    @given(
        left=column_of(KEY_CELLS),
        mid=keyed_tables("mid", "k", KEY_CELLS, value_name="link"),
        far=keyed_tables("far", "link", NUMERIC_CELLS),
    )
    def test_two_hops_match_reference(self, left, mid, far):
        """The first hop's aggregate is the second hop's key: a mean of
        repeated numeric links, or the first present text link."""
        base = Table("base", {"key": left})
        steps = (JoinStep("key", "mid", "k"), JoinStep("link", "far", "link"))
        check_augmentation(steps, "v", base, {"mid": mid, "far": far})

    @settings(max_examples=60, deadline=None)
    @given(
        lefts=st.lists(column_of(KEY_CELLS), min_size=2, max_size=3),
        right=keyed_tables("right", "k", NUMERIC_CELLS),
    )
    def test_hop_structures_kept_on_a_table_serve_every_base(self, lefts, right):
        corpus = {"right": right}
        steps = (JoinStep("key", "right", "k"),)
        for left in lefts:
            base = Table("base", {"key": left})
            got = Augmentation(JoinPath(steps), "v").materialize(base, corpus)
            expected = reference_join.materialize(steps, "v", base, corpus)
            assert bits(got) == bits(expected)

    def test_summation_boundaries(self):
        """Group sizes 1 .. 20 and 127 .. 130 of values whose sum depends
        on the order of additions."""
        sizes = list(range(1, 21)) + [127, 128, 129, 130]
        rng = np.random.default_rng(0)
        keys, values = [], []
        for size in sizes:
            keys += [f"k{size}"] * size
            values += (rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size)).tolist()
        order = rng.permutation(len(keys))
        right = Table(
            "right", {"k": [keys[i] for i in order], "v": [values[i] for i in order]}
        )
        base = Table("base", {"key": [f"k{size}" for size in sizes] + ["absent"]})
        check_augmentation((JoinStep("key", "right", "k"),), "v", base, {"right": right})

    def test_fast_path_signed_zero_and_missing(self):
        """-0.0 becomes 0.0 (numpy's mean of one float, alone or in a
        group), a None or NaN cell is missing, and a group's mean skips
        its missing cells."""
        right = Table(
            "right",
            {
                "k": ["a", "b", "c", "d", "d", "e", " E "],
                "v": [-0.0, None, float("nan"), -0.0, None, 1.5, None],
            },
        )
        base = Table("base", {"key": ["a", "b", "c", "d", "e", "  ", "x"]})
        check_augmentation((JoinStep("key", "right", "k"),), "v", base, {"right": right})
        values = Augmentation(JoinPath((JoinStep("key", "right", "k"),)), "v").materialize(
            base, {"right": right}
        )
        assert bits(values) == bits([0.0, None, None, 0.0, 1.5, None, None])

    def test_nan_mean_counts_as_unmatched(self):
        right = Table(
            "right",
            {"k": ["a", "a", "b", "c"], "v": [float("inf"), float("-inf"), 1.0, "nan"]},
        )
        base = Table("base", {"key": ["a", "b", "c", "d"]})
        aug = Augmentation(JoinPath((JoinStep("key", "right", "k"),)), "v")
        values = aug.materialize(base, {"right": right})
        assert bits(values) == bits([float("nan"), 1.0, float("nan"), None])
        assert aug.overlap_fraction(base, {"right": right}) == 0.25

    def test_gathers_share_the_aggregates_floats(self):
        """Every gather hands out the aggregates' own float objects: two
        bases joined through one right table box no float afresh (a
        re-boxed float per row was measurable peak memory)."""
        right = Table("right", {"k": ["a", "b", "b"], "v": [0.5, 1.0, 2.0]})
        steps = (JoinStep("key", "right", "k"),)
        aug = Augmentation(JoinPath(steps), "v")
        first = aug.materialize(Table("b1", {"key": ["a", "b"]}), {"right": right})
        second = aug.materialize(Table("b2", {"key": ["b", "a", "a"]}), {"right": right})
        assert first == [0.5, 1.5]
        assert second[0] is first[1] and second[1] is second[2] is first[0]

    def test_float_columns_skip_type_inference(self):
        """A bring column whose cells are all float or None is numeric
        (or all missing, which every path joins to None) without
        inferring its type; other columns still infer it."""
        right = Table(
            "right", {"k": ["a", "a", "b"], "v": [1.0, None, 2.0], "w": ["x", "y", 3]}
        )
        base = Table("base", {"key": ["a", "b", "c"]})
        for column in ("v", "w"):
            check_augmentation(
                (JoinStep("key", "right", "k"),), column, base, {"right": right}
            )
        assert "v" not in right._type_cache and "w" in right._type_cache

    def test_empty_tables(self):
        empty = Table("right", {"k": [], "v": []})
        steps = (JoinStep("key", "right", "k"),)
        check_augmentation(steps, "v", Table("base", {"key": ["a", None]}), {"right": empty})
        check_augmentation(steps, "v", Table("base", {"key": []}), {"right": empty})

    def test_missing_table_and_columns_raise_key_error(self):
        base = Table("base", {"key": ["a"]})
        right = Table("right", {"k": ["a"], "v": [1.0]})
        cases = [
            ((JoinStep("nope", "right", "k"),), "v", {"right": right}),
            ((JoinStep("key", "ghost", "k"),), "v", {"right": right}),
            ((JoinStep("key", "right", "nope"),), "v", {"right": right}),
            ((JoinStep("key", "right", "k"),), "nope", {"right": right}),
            (
                (JoinStep("key", "right", "k"), JoinStep("nope", "right", "k")),
                "v",
                {"right": right},
            ),
        ]
        for steps, column, corpus in cases:
            with pytest.raises(KeyError):
                reference_join.materialize(steps, column, base, corpus)
            with pytest.raises(KeyError):
                Augmentation(JoinPath(steps), column).materialize(base, corpus)
