"""Unit tests for the Table core."""

import numpy as np
import pytest

from repro.dataframe import Table, ColumnType


@pytest.fixture
def small():
    return Table(
        "houses",
        {
            "zipcode": ["60601", "60602", "60603"],
            "price": [100.0, 200.0, 300.0],
            "label": ["low", "high", "high"],
        },
        source="test-portal",
    )


class TestConstruction:
    def test_shape(self, small):
        assert small.num_rows == 3
        assert small.num_columns == 3

    def test_column_order_preserved(self, small):
        assert small.column_names == ["zipcode", "price", "label"]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Table("bad", {"a": [1, 2], "b": [1]})

    def test_missing_header_gets_placeholder(self):
        t = Table("t", {None: [1, 2], "b": [3, 4]})
        assert t.column_names == ["_col_0", "b"]

    def test_empty_table(self):
        t = Table("nothing", {})
        assert t.num_rows == 0
        assert t.num_columns == 0


class TestAccess:
    def test_column_access(self, small):
        assert small.column("price") == [100.0, 200.0, 300.0]

    def test_unknown_column_raises(self, small):
        with pytest.raises(KeyError, match="nope"):
            small.column("nope")

    def test_contains(self, small):
        assert "price" in small
        assert "nope" not in small

    def test_distinct_values(self, small):
        assert small.distinct_values("label") == {"low", "high"}


class TestTypes:
    def test_numeric_inference(self, small):
        assert small.column_type("price") == ColumnType.NUMERIC

    def test_numeric_strings_are_numeric(self, small):
        assert small.column_type("zipcode") == ColumnType.NUMERIC

    def test_categorical_inference(self, small):
        assert small.column_type("label") == ColumnType.CATEGORICAL

    def test_numeric_array_with_nan(self):
        t = Table("t", {"a": [1, None, "3"]})
        arr = t.numeric("a")
        assert arr[0] == 1.0
        assert np.isnan(arr[1])
        assert arr[2] == 3.0

    def test_encoded_categorical_deterministic(self, small):
        enc1 = small.encoded("label")
        enc2 = small.encoded("label")
        assert np.array_equal(enc1, enc2)
        assert set(enc1) == {0.0, 1.0}

    def test_to_matrix_shape(self, small):
        m = small.to_matrix(["price", "label"])
        assert m.shape == (3, 2)

    def test_to_matrix_empty_columns(self, small):
        assert small.to_matrix([]).shape == (3, 0)


class TestTransforms:
    def test_drop_columns(self, small):
        d = small.drop_columns(["label"])
        assert "label" not in d

    def test_with_column_appends(self, small):
        t = small.with_column("tax", [1, 2, 3])
        assert t.column("tax") == [1, 2, 3]
        assert small.num_columns == 3  # original untouched

    def test_with_column_wrong_length(self, small):
        with pytest.raises(ValueError):
            small.with_column("tax", [1])

    def test_select_rows(self, small):
        s = small.select_rows([2, 0])
        assert s.column("price") == [300.0, 100.0]

    def test_copy_is_independent(self, small):
        c = small.copy()
        c.column("price").append(999)  # mutate the copy's list
        assert small.num_rows == 3
        assert len(small.column("price")) == 3

    def test_equality(self, small):
        assert small == small.copy()
        assert small != small.drop_columns(["label"])
