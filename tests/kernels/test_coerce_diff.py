"""Differential tests for the coercion kernels (float arrays,
categorical codes, type inference) on adversarial cells."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import reference
from tests.kernels.util import SUBCLASS_CELLS, Ratio, differential, subclass_columns

any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
mixed_cell = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**18), max_value=10**18),
    any_float,
    st.text(max_size=10),
)

ADVERSARIAL_COLUMNS = [
    [],
    [None, None],
    [float("nan"), float("inf"), float("-inf"), -0.0],
    [True, False, 1, 0],
    ["1", " 2.5 ", "1e3", "-inf", "nan", "0x10"],
    ["", "   ", "\t", None],
    ["a", "b", "a", ""],
    ["a\x00b", "a", "a\x00b"],
    [1, "1", 1.0, "1.0"],
    [np.float64(2.5), np.int64(3), np.bool_(True)],
    ["café", "CAFÉ", "é中\U0001f600"],
    [10**40, -(10**40)],
    ["1_000", "+5", "-0", ".5", "5.", "infinity"],
]

#: Columns no fast path accepts: the dispatcher must hand each to the
#: scalar function, which is the only path on these inputs.
OFF_FAST_PATH = {
    "subclass-cells": list(SUBCLASS_CELLS),
    "nul-embedded": ["a\x00", "a", "a\x00b", ""],
    "empty": [],
}


def assert_float_arrays_equal(vec, ref):
    assert vec.shape == ref.shape
    assert np.array_equal(vec, ref, equal_nan=True)


@pytest.mark.parametrize("column", OFF_FAST_PATH)
@pytest.mark.parametrize("name", ["to_float_array", "encode_categorical"])
def test_array_dispatcher_off_fast_path_is_scalar_result(name, column):
    cells = OFF_FAST_PATH[column]
    vec, ref = differential(getattr(kernels, name), getattr(reference, name), cells)
    assert_float_arrays_equal(vec, ref)
    assert np.array_equal(np.signbit(vec), np.signbit(ref))


@pytest.mark.parametrize(
    "column, expected",
    [("subclass-cells", "categorical"), ("nul-embedded", "categorical"), ("empty", "empty")],
)
def test_infer_column_type_off_fast_path_is_scalar_result(column, expected):
    cells = OFF_FAST_PATH[column]
    assert kernels.infer_column_type(cells) == expected
    assert reference.infer_column_type(cells) == expected


class TestToFloatArray:
    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(mixed_cell, max_size=50))
    def test_matches_reference(self, cells):
        vec, ref = differential(kernels.to_float_array, reference.to_float_array, cells)
        assert_float_arrays_equal(vec, ref)

    def test_adversarial_columns(self):
        for cells in ADVERSARIAL_COLUMNS:
            vec, ref = differential(kernels.to_float_array, reference.to_float_array, cells)
            assert_float_arrays_equal(vec, ref)

    @settings(max_examples=200, deadline=None)
    @given(cells=subclass_columns)
    def test_subclass_cells_match_reference(self, cells):
        vec, ref = differential(kernels.to_float_array, reference.to_float_array, cells)
        assert_float_arrays_equal(vec, ref)
        assert np.array_equal(np.signbit(vec), np.signbit(ref))


class TestEncodeCategorical:
    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(st.one_of(st.text(max_size=10)), max_size=50))
    def test_all_str_matches_reference(self, cells):
        vec, ref = differential(kernels.encode_categorical, reference.encode_categorical, cells)
        assert_float_arrays_equal(vec, ref)

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(mixed_cell, max_size=40))
    def test_mixed_matches_reference(self, cells):
        vec, ref = differential(kernels.encode_categorical, reference.encode_categorical, cells)
        assert_float_arrays_equal(vec, ref)

    def test_adversarial_columns(self):
        for cells in ADVERSARIAL_COLUMNS:
            vec, ref = differential(kernels.encode_categorical, reference.encode_categorical, cells)
            assert_float_arrays_equal(vec, ref)

    def test_codes_are_sorted_distinct_order(self):
        codes = kernels.encode_categorical(["b", "a", "c", "a"])
        assert codes.tolist() == [1.0, 0.0, 2.0, 0.0]


class TestInferColumnType:
    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.lists(mixed_cell, max_size=50),
        threshold=st.sampled_from((1, 20)),
    )
    def test_matches_reference(self, cells, threshold):
        vec, ref = differential(
            kernels.infer_column_type, reference.infer_column_type, cells, threshold
        )
        assert vec == ref

    def test_adversarial_columns(self):
        for cells in ADVERSARIAL_COLUMNS:
            vec, ref = differential(kernels.infer_column_type, reference.infer_column_type, cells)
            assert vec == ref, cells

    @settings(max_examples=200, deadline=None)
    @given(cells=subclass_columns)
    def test_subclass_cells_match_reference(self, cells):
        vec, ref = differential(kernels.infer_column_type, reference.infer_column_type, cells)
        assert vec == ref

    def test_numeric_fast_path_classification(self):
        vec, ref = differential(
            kernels.infer_column_type, reference.infer_column_type, [1, 2.5, None, float("nan")]
        )
        assert vec == ref == "numeric"
        vec, ref = differential(
            kernels.infer_column_type, reference.infer_column_type, [None, float("nan")]
        )
        assert vec == ref == "empty"


class TestIsMissing:
    """``kernels.is_missing`` tests NaN as ``value != value``; the
    reference asks numpy."""

    def test_nan_of_every_float_type(self):
        for value, expected in (
            (float("nan"), True),
            (np.float64("nan"), True),
            (Ratio("nan"), True),
            # Not a float to isinstance, so not missing to either side.
            (np.float32("nan"), False),
            (np.float16("nan"), False),
            (Decimal("nan"), False),
        ):
            assert kernels.is_missing(value) is expected, repr(value)
            assert reference.is_missing(value) == expected, repr(value)

    @settings(max_examples=200, deadline=None)
    @given(value=st.one_of(mixed_cell, st.sampled_from(SUBCLASS_CELLS)))
    def test_matches_reference(self, value):
        assert kernels.is_missing(value) is bool(reference.is_missing(value))
