"""Relational operations over :class:`~repro.dataframe.table.Table`.

Joins are hash joins on string-normalized keys.  A left join with a
one-to-many match aggregates the right side per key (mean for numeric
columns, first value otherwise), which keeps augmented tables row-aligned
with the input table — the semantics augmentation needs (Definition 4).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat

import numpy as np

from repro import kernels
from repro.dataframe.table import Table
from repro.dataframe.types import ColumnType, is_missing

_FLOAT_OR_NONE = frozenset({float, type(None)})


def _key(value):
    """Normalized join key for a cell, or None when missing."""
    if is_missing(value):
        return None
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value).strip().lower()


def join_keys(table: Table, column: str) -> list:
    """Normalized join key of every row of ``table.column`` (None where
    the cell is missing)."""

    def build():
        cells = table.column(column)
        if kernels.type_census(cells) == {str}:
            # _key of a str: None when blank, else stripped + lowered.
            return [k or None for k in map(str.lower, map(str.strip, cells))]
        return list(map(_key, cells))

    return table.derived(("join_keys", column), build)


def _first_rows(table: Table, key_column: str) -> dict:
    """Map normalized key -> the first row of ``table`` holding it (no
    missing key), built in C from the rows read backwards."""

    def build():
        keys = join_keys(table, key_column)
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        first.pop(None, None)
        return first

    return table.derived(("join_first", key_column), build)


def _repeated_keys(table: Table, key_column: str) -> list:
    """``[(key, row indices)]`` for the keys on more than one row, in
    first-occurrence order — what :func:`_aggregate_rows` redoes per
    bring column.  Counting runs in C, so a column of distinct keys (the
    common case) costs no per-row Python."""

    def build():
        keys = join_keys(table, key_column)
        counts = Counter(keys)
        repeated = {k: [] for k, n in counts.items() if n > 1 and k is not None}
        if repeated:
            for i, k in enumerate(keys):
                rows = repeated.get(k)
                if rows is not None:
                    rows.append(i)
        return list(repeated.items())

    return table.derived(("join_repeated", key_column), build)


def _aggregate_rows(right: Table, key_column: str, bring_column: str) -> tuple:
    """``bring_column`` collapsed to one cell per join key, at that key's
    first row.

    Returns ``(cells, matched)``, two arrays one longer than the table:
    ``cells`` (objects) holds, at the first row of every key, the mean of
    the key's non-missing cells (numeric columns) or the first of them,
    and None where it has none; ``matched`` (bool) marks the rows whose
    cell is non-missing — all of them, unless a mean came out NaN
    (inf - inf).  The extra last slot is a missing cell for the keys the
    table does not hold.
    """

    def build():
        cells = right.column(bring_column)
        n = len(cells)
        # A float-or-missing column is numeric unless it is all missing,
        # and then every path collapses it to missing cells.
        floats = kernels.type_census(cells) <= _FLOAT_OR_NONE
        numeric = floats or right.column_type(bring_column) == ColumnType.NUMERIC
        # One row per key is the common case, and numpy's mean of one
        # float is 0.0 + that float: the float itself, but for -0.0.
        if floats:
            # None and NaN (the missing cells) both come out NaN.
            values = np.array(cells, dtype=float) + 0.0
            matched = np.append(values == values, False)
            out = np.fromiter(chain(values.tolist(), (None,)), object, n + 1)
            out[~matched] = None
            kept = matched.tolist()
        else:
            if numeric:
                present = [None if is_missing(v) else 0.0 + float(v) for v in cells]
            else:
                present = [None if is_missing(v) else v for v in cells]
            present.append(None)
            out = np.fromiter(present, object, n + 1)
            kept = [v is not None for v in present]
            # A cell that is not missing can still parse to NaN ("nan").
            matched = np.array(
                [v is not None and v == v for v in present] if numeric else kept
            )
        # Repeated keys are redone from the cells.
        for k, rows in _repeated_keys(right, key_column):
            group = [cells[i] for i in rows if kept[i]]
            if not group:
                continue
            if numeric:
                # np.mean's own arithmetic without its per-call wrapper:
                # np.add.reduce (pairwise summation in numpy's order is
                # part of the pinned result), then one division.
                value = float(
                    np.add.reduce(np.array([float(v) for v in group])) / len(group)
                )
                matched[rows[0]] = value == value
            else:
                value = group[0]
                matched[rows[0]] = True
            out[rows[0]] = value
        return out, matched

    return right.derived(("join_aggregate", key_column, bring_column), build)


def join_gather(right: Table, key_column: str, bring_column: str, keys) -> tuple:
    """The join kernel: the ``bring_column`` cell of each of ``keys``
    (normalized join keys, None for missing) in ``right.key_column``.

    A key on several rows gets the mean of its non-missing cells (numeric
    columns) or the first of them; a key the table does not hold, or
    holds only beside missing cells, gets None.  Returns ``(cells,
    matched)``: a list aligned with ``keys`` and the number of its cells
    that are non-missing.  The cells are the aggregates' own objects,
    shared by every gather.
    """
    first = _first_rows(right, key_column)
    cells, matched = _aggregate_rows(right, key_column, bring_column)
    rows = np.fromiter(
        map(first.get, keys, repeat(len(cells) - 1)), np.intp, len(keys)
    )
    return cells[rows].tolist(), int(np.count_nonzero(matched[rows]))


def left_join(
    left: Table,
    right: Table,
    left_on: str,
    right_on: str,
    columns=None,
    suffix: str = "",
    name=None,
) -> Table:
    """Left-join ``right`` onto ``left``; unmatched rows get missing cells.

    ``columns`` restricts which right-side columns are brought over
    (default: all except the join key).  Name clashes are resolved with
    ``suffix`` or, if empty, a ``<right.name>.`` prefix.
    """
    left_keys = join_keys(left, left_on)
    bring = [c for c in (columns or right.column_names) if c != right_on]
    out_cols = {c: list(left.column(c)) for c in left.column_names}

    for col in bring:
        cells, _matched = join_gather(right, right_on, col, left_keys)
        out_name = col
        if out_name in out_cols:
            out_name = f"{col}{suffix}" if suffix else f"{right.name}.{col}"
        while out_name in out_cols:
            out_name += "_"
        out_cols[out_name] = cells

    return Table(name or left.name, out_cols, source=left.source)


def inner_join(
    left: Table,
    right: Table,
    left_on: str,
    right_on: str,
    name=None,
) -> Table:
    """Inner join keeping the first right match per left row."""
    first = _first_rows(right, right_on)
    left_idx = []
    right_idx = []
    for i, k in enumerate(join_keys(left, left_on)):
        row = first.get(k)
        if row is not None:
            left_idx.append(i)
            right_idx.append(row)

    out_cols = {
        c: [left.column(c)[i] for i in left_idx] for c in left.column_names
    }
    for col in right.column_names:
        if col == right_on:
            continue
        out_name = col if col not in out_cols else f"{right.name}.{col}"
        while out_name in out_cols:
            out_name += "_"
        out_cols[out_name] = [right.column(col)[i] for i in right_idx]
    return Table(name or f"{left.name}⋈{right.name}", out_cols, source=left.source)


def join_overlap(left: Table, right: Table, left_on: str, right_on: str) -> int:
    """Number of left rows that find at least one right match (cardinality
    of the augmented dataset — the paper's *dataset overlap* profile)."""
    return sum(map(_first_rows(right, right_on).__contains__, join_keys(left, left_on)))


def union_tables(top: Table, bottom: Table, name=None) -> Table:
    """Union (row addition) of two tables over their shared columns.

    Columns present in only one table are kept and padded with missing
    cells, mirroring the open-data union-search setting of [15].
    """
    all_cols = list(top.column_names)
    for c in bottom.column_names:
        if c not in all_cols:
            all_cols.append(c)
    cols = {}
    for c in all_cols:
        upper = list(top.column(c)) if c in top else [None] * top.num_rows
        lower = list(bottom.column(c)) if c in bottom else [None] * bottom.num_rows
        cols[c] = upper + lower
    return Table(name or f"{top.name}∪{bottom.name}", cols, source=top.source)


def concat_columns(base: Table, extra: Table, name=None) -> Table:
    """Column-wise concatenation of two row-aligned tables."""
    if base.num_rows != extra.num_rows:
        raise ValueError(
            f"row mismatch: {base.num_rows} vs {extra.num_rows} "
            f"({base.name!r}, {extra.name!r})"
        )
    cols = {c: list(base.column(c)) for c in base.column_names}
    for c in extra.column_names:
        out = c
        while out in cols:
            out = f"{extra.name}.{out}"
        cols[out] = list(extra.column(c))
    return Table(name or base.name, cols, source=base.source)
