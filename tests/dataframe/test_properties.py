"""Property-based tests (hypothesis) for the dataframe substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Table
from repro.dataframe.types import infer_column_type, to_float_array
from repro.discovery import Augmentation, JoinPath, JoinStep, UnionAugmentation

cells = st.one_of(
    st.none(),
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.text(alphabet="abcdef ", max_size=6),
)


@st.composite
def tables(draw, max_rows=8, max_cols=4):
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    columns = {
        f"c{i}": draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        for i in range(n_cols)
    }
    return Table("t", columns)


def join_augmentation(left, right):
    """Join ``right`` (as corpus table ``r``) on both tables' first
    columns and bring its last column."""
    step = JoinStep(left.column_names[0], "r", right.column_names[0])
    return Augmentation(JoinPath((step,)), right.column_names[-1])


class TestTableProperties:
    @given(tables())
    @settings(max_examples=50, deadline=None)
    def test_copy_equals_original(self, table):
        assert table.copy() == table

    @given(tables())
    @settings(max_examples=50, deadline=None)
    def test_to_float_array_length(self, table):
        column = table.column_names[0]
        assert len(to_float_array(table.column(column))) == table.num_rows

    @given(tables())
    @settings(max_examples=50, deadline=None)
    def test_encoded_is_finite_or_nan(self, table):
        column = table.column_names[0]
        encoded = table.encoded(column)
        assert np.all(np.isfinite(encoded) | np.isnan(encoded))

    @given(tables(), st.lists(st.integers(0, 7), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_select_rows_keeps_the_indexed_rows(self, table, picks):
        picks = [i for i in picks if i < table.num_rows]
        selected = table.select_rows(picks)
        assert selected.num_rows == len(picks)
        for column in table.column_names:
            assert selected.column(column) == [table.column(column)[i] for i in picks]


class TestJoinProperties:
    """A join augmentation keeps the input's rows (Definition 4)."""

    @given(tables(), tables())
    @settings(max_examples=40, deadline=None)
    def test_join_preserves_left_rows(self, left, right):
        aug = join_augmentation(left, right)
        assert len(aug.materialize(left, {"r": right})) == left.num_rows
        assert aug.apply(left, left, {"r": right}).num_rows == left.num_rows

    @given(tables(), tables())
    @settings(max_examples=40, deadline=None)
    def test_overlap_is_a_fraction(self, left, right):
        assert 0.0 <= join_augmentation(left, right).overlap_fraction(left, {"r": right}) <= 1.0


class TestUnionProperties:
    @given(tables(), tables())
    @settings(max_examples=40, deadline=None)
    def test_union_row_count_additive(self, top, bottom):
        unioned = UnionAugmentation("r", 1.0).apply(top, top, {"r": bottom})
        assert unioned.num_rows == top.num_rows + bottom.num_rows
        assert unioned.column_names == top.column_names


class TestTypeInference:
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_integers_are_numeric(self, values):
        from repro.dataframe.types import ColumnType

        assert infer_column_type(values) == ColumnType.NUMERIC

    @given(st.lists(st.none(), min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_all_missing_is_empty(self, values):
        from repro.dataframe.types import ColumnType

        assert infer_column_type(values) == ColumnType.EMPTY
