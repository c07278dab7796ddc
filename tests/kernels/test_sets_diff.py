"""Differential tests for the set-shaped kernels: distinct values,
missing counts, normalization.  (Containment is one set intersection in
the discovery index; ``tests/discovery/test_containment.py`` holds it.)"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from tests.kernels.util import SUBCLASS_CELLS, Label, differential, subclass_columns
from repro.kernels import reference

any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
mixed_cell = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**18), max_value=10**18),
    any_float,
    st.text(max_size=12),
)


@pytest.mark.parametrize(
    "cells, expected",
    [
        # str/float/int subclasses and look-alikes: no single-type fast path.
        (
            list(SUBCLASS_CELLS),
            {"True", "False", "2.5", "nan", "0.1", "3", "7", "1.5", " x ",
             "4.0", "1", "-0.0", "8"},
        ),
        ([Label("a\x00"), "a\x00", "a", Label(" ")], {"a\x00", "a"}),
        ([], set()),
    ],
    ids=["subclass-cells", "nul-embedded", "empty"],
)  # fmt: skip
def test_distinct_strings_off_fast_path_is_scalar_result(cells, expected):
    vec, ref = differential(kernels.distinct_strings, reference.distinct_strings, cells)
    assert vec == ref == expected


class TestDistinctStrings:
    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(st.text(max_size=12), max_size=60))
    def test_all_str_matches_reference(self, cells):
        vec, ref = differential(kernels.distinct_strings, reference.distinct_strings, cells)
        assert vec == ref

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.lists(
            st.one_of(st.none(), any_float), max_size=60
        )
    )
    def test_float_none_matches_reference(self, cells):
        """The float fast path (``repr`` of every cell, the two missing
        spellings discarded) on every bit pattern."""
        vec, ref = differential(kernels.distinct_strings, reference.distinct_strings, cells)
        assert vec == ref

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(mixed_cell, max_size=40))
    def test_mixed_type_matches_reference(self, cells):
        vec, ref = differential(kernels.distinct_strings, reference.distinct_strings, cells)
        assert vec == ref

    @settings(max_examples=200, deadline=None)
    @given(cells=subclass_columns)
    def test_subclass_cells_match_reference(self, cells):
        """Type-census dispatch: a bool is not an int column, an
        ``np.float64`` or str subclass not a float or str column."""
        vec, ref = differential(kernels.distinct_strings, reference.distinct_strings, cells)
        assert vec == ref

    def test_adversarial_fixed_columns(self):
        columns = [
            [],
            [None, None, float("nan")],
            ["None", "nan", None, float("nan")],
            [True, False],
            [True, 1, 0],
            [0.0, -0.0, float("inf"), float("-inf"), 5e-324, 1.7976e308],
            [1, 1.0, True],  # equal across types, different strings
            ["", "  ", "\t", "a"],
            ["café", "CAFÉ", "a\x00b"],
            [0, -0, 10**30],
        ]
        for cells in columns:
            vec, ref = differential(kernels.distinct_strings, reference.distinct_strings, cells)
            assert vec == ref, cells

    def test_million_row_float_column(self):
        rng = np.random.default_rng(0)
        cells = rng.integers(0, 1 << 64, size=1_000_000, dtype=np.uint64)
        cells = cells.view(np.float64).tolist()
        vec, ref = differential(kernels.distinct_strings, reference.distinct_strings, cells)
        assert vec == ref


#: Float cells at the edges of repr: signed zeros and infinities, NaN,
#: subnormals, the first integer-valued float printed with an exponent
#: and a sum that does not print as its decimal spelling.
EDGE_FLOATS = (
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
    2.2250738585072014e-308, 1e16, 1e15, 0.1 + 0.2, 0.3, 1.0, 1e-5,
)  # fmt: skip
float_cells = st.lists(
    st.one_of(st.none(), st.sampled_from(EDGE_FLOATS), any_float), max_size=40
)
#: Spellings of a number that are not its repr, beside ones that are.
QUERY_STRINGS = (
    "1.0", "1.00", "1", " 1.0", "-0.0", "0.0", "inf", "-inf", "Infinity",
    "nan", "1e+16", "1E+16", "1_0.0", "5e-324", "0.30000000000000004", "0.3",
    "", "x",
)  # fmt: skip


def domain_strings(domain):
    return set(map(repr, domain.view(np.float64).tolist()))


class TestFloatDomain:
    """``float_domain`` is ``distinct_strings`` kept as bit patterns, and
    ``float_probe`` answers membership in it for any string."""

    @settings(max_examples=200, deadline=None)
    @given(cells=float_cells)
    def test_repr_of_domain_is_distinct_strings(self, cells):
        domain = kernels.float_domain(cells)
        assert domain.dtype == np.int64
        assert np.array_equal(domain, np.unique(domain))
        assert domain_strings(domain) == reference.distinct_strings(cells)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=float_cells,
        queries=st.lists(
            st.one_of(
                st.sampled_from(QUERY_STRINGS),
                any_float.map(repr),
                st.text(alphabet="0123456789.-+eE_ inf", max_size=8),
            ),
            max_size=20,
        ),
    )
    def test_probe_membership_is_string_membership(self, cells, queries):
        distinct = reference.distinct_strings(cells)
        domain = set(kernels.float_domain(cells).tolist())
        for query in queries:
            (bits,) = kernels.float_probe([query]).tolist() or [None]
            assert (query in distinct) == (bits in domain), query
        probes = kernels.float_probe(queries)
        assert np.array_equal(probes, np.unique(probes))
        hits = np.intersect1d(probes, kernels.float_domain(cells)).size
        assert hits == len(set(queries) & distinct)

    def test_query_spellings(self):
        cells = [1.0, -0.0, float("inf"), 1e16, None, float("nan")]
        hits = {q for q in QUERY_STRINGS if kernels.float_probe([q]).size}
        assert hits == {
            "1.0", "-0.0", "0.0", "inf", "-inf", "1e+16", "5e-324",
            "0.30000000000000004", "0.3",
        }  # fmt: skip
        probes = kernels.float_probe(QUERY_STRINGS)
        found = domain_strings(np.intersect1d(probes, kernels.float_domain(cells)))
        assert found == {"1.0", "-0.0", "inf", "1e+16"}
        assert found == set(QUERY_STRINGS) & reference.distinct_strings(cells)

    @pytest.mark.parametrize(
        "cells",
        [[1.0, 1], [1.0, "1.0"], [True], [np.float64(1.0)], [1.0, Label("x")]],
        ids=repr,
    )
    def test_outside_precondition_is_none(self, cells):
        assert kernels.float_domain(cells) is None

    @pytest.mark.parametrize("cells", [[], [None], [float("nan"), None]], ids=repr)
    def test_no_values_is_an_empty_domain(self, cells):
        domain = kernels.float_domain(cells)
        assert domain.dtype == np.int64 and domain.size == 0
        assert reference.distinct_strings(cells) == set()


class TestNormalize:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.text(max_size=16), max_size=40))
    def test_matches_reference(self, values):
        vec, ref = differential(kernels.normalize_strings, reference.normalize_strings, values)
        assert vec == ref

    def test_normalize_many_is_elementwise(self):
        collections = [{"A ", " b"}, set(), {"Ç", "ß"}]
        assert kernels.normalize_many(collections) == [
            reference.normalize_strings(c) for c in collections
        ]
