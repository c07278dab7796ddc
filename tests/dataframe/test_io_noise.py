"""Tests for the Definition-1 noise models."""

import pytest

from repro.dataframe import Table, drop_headers, duplicate_rows, inject_missing_values
from repro.dataframe.types import is_missing


class TestNoise:
    @pytest.fixture
    def table(self):
        return Table("t", {"a": list(range(20)), "b": list(range(20))})

    def test_drop_headers_renames(self, table):
        noisy = drop_headers(table, 0.5, seed=0)
        placeholders = [c for c in noisy.column_names if c.startswith("_col_")]
        assert len(placeholders) == 1

    def test_drop_headers_preserves_cells(self, table):
        noisy = drop_headers(table, 1.0, seed=0)
        assert noisy.num_rows == 20
        assert sorted(noisy.column(noisy.column_names[0])) == list(range(20))

    def test_inject_missing_fraction(self, table):
        noisy = inject_missing_values(table, 0.25, seed=0)
        assert sum(map(is_missing, noisy.column("a"))) == 5

    def test_inject_missing_zero(self, table):
        noisy = inject_missing_values(table, 0.0, seed=0)
        assert not any(map(is_missing, noisy.column("a")))

    def test_duplicate_rows_appends(self, table):
        noisy = duplicate_rows(table, 0.5, seed=0)
        assert noisy.num_rows == 30

    def test_duplicate_rows_values_from_original(self, table):
        noisy = duplicate_rows(table, 0.5, seed=0)
        assert set(noisy.column("a")) <= set(range(20))

    def test_noise_is_deterministic(self, table):
        a = inject_missing_values(table, 0.3, seed=7)
        b = inject_missing_values(table, 0.3, seed=7)
        assert a.column("a") == b.column("a")


class TestNoiseProperties:
    def test_duplicate_zero_fraction_is_copy(self):
        t = Table("t", {"a": [1, 2]})
        assert duplicate_rows(t, 0.0, seed=0).num_rows == 2

    def test_duplicate_empty_table(self):
        t = Table("t", {"a": []})
        assert duplicate_rows(t, 0.9, seed=0).num_rows == 0
