"""Tests for the join kernel: ``join_gather`` over normalized join keys."""

import pytest

from repro.dataframe import Table
from repro.dataframe.ops import join_gather, join_keys


def gather(left, right, left_on, right_on, bring):
    """The ``bring`` cell of ``right`` for each row of ``left``, and the
    number of those cells that are non-missing."""
    return join_gather(right, right_on, bring, join_keys(left, left_on))


@pytest.fixture
def houses():
    return Table(
        "houses",
        {"zip": ["1", "2", "3", "4"], "price": [10, 20, 30, 40]},
    )


@pytest.fixture
def crime():
    return Table(
        "crime",
        {"zipcode": ["1", "2", "2", "9"], "crimes": [5.0, 7.0, 9.0, 1.0]},
    )


class TestJoinGather:
    def test_basic_alignment(self, houses, crime):
        cells, _ = gather(houses, crime, "zip", "zipcode", "crimes")
        assert len(cells) == 4
        assert cells[0] == 5.0

    def test_one_to_many_numeric_mean(self, houses, crime):
        cells, _ = gather(houses, crime, "zip", "zipcode", "crimes")
        assert cells[1] == 8.0  # mean(7, 9)

    def test_unmatched_rows_missing(self, houses, crime):
        cells, _ = gather(houses, crime, "zip", "zipcode", "crimes")
        assert cells[2] is None and cells[3] is None

    def test_matched_counts_non_missing_cells(self, houses, crime):
        assert gather(houses, crime, "zip", "zipcode", "crimes")[1] == 2
        other = Table("o", {"zipcode": ["99"], "v": [1.0]})
        assert gather(houses, other, "zip", "zipcode", "v")[1] == 0

    def test_numeric_string_keys_match_ints(self):
        left = Table("l", {"k": [1, 2]})
        right = Table("r", {"k": ["1", "2"], "v": ["a", "b"]})
        assert gather(left, right, "k", "k", "v")[0] == ["a", "b"]

    def test_float_integral_keys_match(self):
        left = Table("l", {"k": [1.0, 2.0]})
        right = Table("r", {"k": ["1", "2"], "v": ["a", "b"]})
        assert gather(left, right, "k", "k", "v")[0] == ["a", "b"]

    def test_missing_keys_never_match(self):
        left = Table("l", {"k": [None, "1"]})
        right = Table("r", {"k": [None, "1"], "v": ["x", "y"]})
        assert gather(left, right, "k", "k", "v")[0] == [None, "y"]

    def test_categorical_many_takes_first(self):
        left = Table("l", {"k": ["1"]})
        right = Table("r", {"k": ["1", "1"], "v": ["first", "second"]})
        assert gather(left, right, "k", "k", "v")[0] == ["first"]
