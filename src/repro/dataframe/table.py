"""The column-oriented :class:`Table`, the core data object of the library.

A table is a named, ordered mapping from column names to equal-length lists
of raw cells.  Cells may be numbers, strings, or ``None`` (missing).  The
class deliberately stays small: relational operations live in
:mod:`repro.dataframe.ops`, IO in :mod:`repro.dataframe.io`.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.dataframe.types import (
    ColumnType,
    encode_categorical,
    infer_column_type,
    to_float_array,
)


class Table:
    """A named collection of equal-length columns.

    Parameters
    ----------
    name:
        Identifier of the table (e.g., file name in a repository).
    columns:
        Mapping of column name to list of cells.  Insertion order is the
        schema order.  A column name of ``None`` models the paper's
        *missing header* case and is replaced by a positional placeholder.
    source:
        Optional provenance string (portal / repository name), used by the
        metadata profile.
    """

    def __init__(self, name: str, columns: dict, source: str = ""):
        self.name = str(name)
        self.source = str(source)
        self._columns = {}
        n_rows = None
        for idx, (col_name, cells) in enumerate(columns.items()):
            key = f"_col_{idx}" if col_name is None else str(col_name)
            cells = list(cells)
            if n_rows is None:
                n_rows = len(cells)
            elif len(cells) != n_rows:
                raise ValueError(
                    f"column {key!r} has {len(cells)} rows, expected {n_rows}"
                )
            if key in self._columns:
                raise ValueError(f"duplicate column name {key!r} in table {name!r}")
            self._columns[key] = cells
        self._n_rows = 0 if n_rows is None else n_rows
        self._type_cache = {}
        # Derived views (see :meth:`derived`).  Cells are immutable by
        # contract (column() documents "don't mutate"; every
        # transformation returns a new Table), so numeric/encoded arrays,
        # distinct sets and other modules' per-table structures are
        # computed once and shared; arrays are frozen so an accidental
        # in-place write fails loudly instead of corrupting later readers.
        self._derived_cache = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of tuples."""
        return self._n_rows

    @property
    def num_columns(self) -> int:
        """Number of attributes."""
        return len(self._columns)

    @property
    def column_names(self) -> list:
        """Schema order list of column names."""
        return list(self._columns.keys())

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, rows={self.num_rows}, "
            f"columns={self.column_names!r})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.name == other.name
            and self.column_names == other.column_names
            and all(self._columns[c] == other._columns[c] for c in self._columns)
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> list:
        """Raw cells of column ``name`` (the list is not a copy; don't mutate)."""
        if name not in self._columns:
            raise KeyError(f"no column {name!r} in table {self.name!r}")
        return self._columns[name]

    def column_type(self, name: str) -> ColumnType:
        """Inferred :class:`ColumnType` of a column (cached)."""
        if name not in self._type_cache:
            self._type_cache[name] = infer_column_type(self.column(name))
        return self._type_cache[name]

    def numeric_columns(self) -> list:
        """Names of all columns inferred as numeric."""
        return [c for c in self._columns if self.column_type(c) == ColumnType.NUMERIC]

    def _frozen(self, key, convert, name: str) -> np.ndarray:
        def build():
            arr = convert(self.column(name))
            arr.flags.writeable = False
            return arr

        return self.derived((key, name), build)

    def numeric(self, name: str) -> np.ndarray:
        """Column as float array, NaN for missing/unparseable cells.

        The array is computed once per column and read-only; copy before
        mutating.
        """
        return self._frozen("numeric", to_float_array, name)

    def encoded(self, name: str) -> np.ndarray:
        """Column as floats: numeric as-is, otherwise deterministic codes.

        Read-only like :meth:`numeric`; copy before mutating.
        """
        if self.column_type(name) == ColumnType.NUMERIC:
            return self.numeric(name)
        return self._frozen("encoded", encode_categorical, name)

    def to_matrix(self, columns=None) -> np.ndarray:
        """Stack ``columns`` (default: all) into an (n_rows, k) float matrix."""
        columns = self.column_names if columns is None else list(columns)
        if not columns:
            return np.empty((self._n_rows, 0), dtype=float)
        return np.column_stack([self.encoded(c) for c in columns])

    def row(self, index: int) -> dict:
        """Row ``index`` as a column-name → cell dict."""
        return {c: cells[index] for c, cells in self._columns.items()}

    def iter_rows(self):
        """Iterate rows as dicts (for small tables / IO only)."""
        for i in range(self._n_rows):
            yield self.row(i)

    def distinct_values(self, name: str) -> set:
        """Distinct non-missing values of a column, as strings.

        Cached per column; treat the returned set as read-only.
        """
        return self.derived(
            ("distinct", name), lambda: kernels.distinct_strings(self.column(name))
        )

    def derived(self, key, build):
        """``build()``, computed once per ``key`` and kept with the table.

        For read-only structures that follow from the (immutable) cells
        alone — join-key groupings, per-key aggregates, the table's
        embedding.
        """
        if key not in self._derived_cache:
            self._derived_cache[key] = build()
        return self._derived_cache[key]

    def estimated_byte_size(self, size_sample: int = 1000) -> int:
        """In-memory cell-size estimate in bytes (Table I's 'Size').

        Sums ``str()`` lengths of every cell; columns longer than
        ``size_sample`` cells are estimated from a deterministic
        evenly-spaced sample instead of stringifying every cell, so the
        statistic stays cheap on production-scale corpora
        (``size_sample <= 0`` disables sampling and counts every cell).
        """
        total = 0
        for column in self.column_names:
            cells = self.column(column)
            if size_sample <= 0 or len(cells) <= size_sample:
                sample = cells
            else:
                stride = len(cells) / size_sample
                sample = [cells[int(i * stride)] for i in range(size_sample)]
            if not sample:
                continue
            sampled = sum(len(str(v)) if v is not None else 1 for v in sample)
            total += int(round(sampled * len(cells) / len(sample)))
        return total

    def missing_fraction(self, name: str) -> float:
        """Fraction of missing cells in a column."""
        cells = self.column(name)
        if not cells:
            return 0.0
        return (len(cells) - kernels.count_non_missing(cells)) / len(cells)

    # ------------------------------------------------------------------
    # Schema / row transformations (all return new tables)
    # ------------------------------------------------------------------
    def copy(self, name=None) -> "Table":
        """Shallow-copy the table (cells are copied, values shared)."""
        return Table(
            name or self.name,
            {c: list(cells) for c, cells in self._columns.items()},
            source=self.source,
        )

    def project(self, columns, name=None) -> "Table":
        """Keep only ``columns``, in the given order."""
        missing = [c for c in columns if c not in self._columns]
        if missing:
            raise KeyError(f"columns {missing!r} not in table {self.name!r}")
        return Table(
            name or self.name,
            {c: list(self._columns[c]) for c in columns},
            source=self.source,
        )

    def drop_columns(self, columns, name=None) -> "Table":
        """Remove ``columns`` from the schema."""
        drop = set(columns)
        keep = [c for c in self.column_names if c not in drop]
        return self.project(keep, name=name)

    def rename_column(self, old: str, new: str) -> "Table":
        """Rename one column, preserving order."""
        if old not in self._columns:
            raise KeyError(f"no column {old!r} in table {self.name!r}")
        cols = {}
        for c, cells in self._columns.items():
            cols[new if c == old else c] = list(cells)
        return Table(self.name, cols, source=self.source)

    def with_column(self, name: str, cells, table_name=None) -> "Table":
        """Append (or replace) a column and return the new table."""
        if len(cells) != self._n_rows and self._columns:
            raise ValueError(
                f"new column {name!r} has {len(cells)} rows, expected {self._n_rows}"
            )
        cols = {c: list(v) for c, v in self._columns.items()}
        cols[name] = list(cells)
        return Table(table_name or self.name, cols, source=self.source)

    def select_rows(self, indices, name=None) -> "Table":
        """Keep rows at ``indices`` (list of ints), in order."""
        return Table(
            name or self.name,
            {c: [cells[i] for i in indices] for c, cells in self._columns.items()},
            source=self.source,
        )

    def head(self, n: int = 5) -> "Table":
        """First ``n`` rows."""
        return self.select_rows(range(min(n, self._n_rows)))

    def sample_rows(self, n: int, rng) -> "Table":
        """Uniform row sample without replacement (all rows if n >= len)."""
        if n >= self._n_rows:
            return self.copy()
        indices = rng.choice(self._n_rows, size=n, replace=False)
        return self.select_rows(sorted(int(i) for i in indices))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, column_names, rows, source: str = "") -> "Table":
        """Build a table from a list of row tuples/lists."""
        column_names = list(column_names)
        if len(set(column_names)) != len(column_names):
            raise ValueError(f"duplicate column names in {column_names!r}")
        columns = {c: [] for c in column_names}
        for row in rows:
            if len(row) != len(column_names):
                raise ValueError(
                    f"row has {len(row)} cells, expected {len(column_names)}"
                )
            for c, v in zip(column_names, row, strict=True):
                columns[c].append(v)
        return cls(name, columns, source=source)

    @classmethod
    def empty(cls, name: str, source: str = "") -> "Table":
        """A table with no rows and no columns."""
        return cls(name, {}, source=source)


def normalize_corpus(corpus) -> dict:
    """``{name: Table}`` from a dict or iterable of Tables.

    The corpus-normalization rule of the serving engine's
    ``attach_corpus``: entries must be Tables, and two *distinct* table objects
    may not share a name (the same object listed twice is fine — every
    internal map is name-keyed, and silently collapsing different
    content would corrupt discovery).
    """
    tables = corpus.values() if isinstance(corpus, dict) else corpus
    normalized = {}
    for table in tables:
        if not isinstance(table, Table):
            raise TypeError(f"corpus entries must be Tables, got {table!r}")
        if table.name in normalized and normalized[table.name] is not table:
            raise ValueError(f"duplicate table name {table.name!r} in corpus")
        normalized[table.name] = table
    return normalized
