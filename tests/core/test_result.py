"""Tests for the SearchResult container."""

import pytest

from repro.core import SearchResult


def make(trace=None, base=0.2, utility=0.8):
    return SearchResult(
        searcher="metam",
        selected=["a"],
        utility=utility,
        base_utility=base,
        queries=7,
        trace=trace if trace is not None else [(1, 0.2), (4, 0.5), (7, 0.8)],
    )


class TestSearchResult:
    def test_gain(self):
        assert make().gain == pytest.approx(0.6)

    def test_utility_at_before_first_query(self):
        assert make().utility_at(0) == 0.2  # falls back to base utility

    def test_utility_at_mid_trace(self):
        assert make().utility_at(5) == 0.5

    def test_utility_at_beyond_trace(self):
        assert make().utility_at(100) == 0.8

    def test_utility_at_empty_trace(self):
        assert make(trace=[]).utility_at(10) == 0.2

    def test_utility_at_never_decreases(self):
        """The ``repro run`` table reads ``utility_at`` at growing query
        points, so each row is nondecreasing even for a trace whose
        values dip."""
        result = make(trace=[(1, 0.6), (3, 0.4), (5, 0.7), (6, 0.1)])
        curve = [result.utility_at(q) for q in range(8)]
        assert curve == [0.2, 0.6, 0.6, 0.6, 0.6, 0.7, 0.7, 0.7]

    def test_summary_contains_key_facts(self):
        text = make().summary()
        assert "metam" in text
        assert "0.200" in text and "0.800" in text
        assert "7 queries" in text

    def test_extras_default_empty(self):
        assert make().extras == {}
