"""Relational operations over :class:`~repro.dataframe.table.Table`.

Joins are hash joins on string-normalized keys.  A left join with a
one-to-many match aggregates the right side per key (mean for numeric
columns, first value otherwise), which keeps augmented tables row-aligned
with the input table — the semantics augmentation needs (Definition 4).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

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


def build_lookup(table: Table, key_column: str) -> dict:
    """Map normalized key -> list of row indices in ``table``."""

    def build():
        lookup = {}
        for i, k in enumerate(join_keys(table, key_column)):
            if k is not None:
                lookup.setdefault(k, []).append(i)
        return lookup

    return table.derived(("join_lookup", key_column), build)


def _repeated_keys(table: Table, key_column: str) -> list:
    """``[(key, row indices)]`` for the keys on more than one row, in
    first-occurrence order — what :func:`key_aggregates` redoes per bring
    column.  Counting runs in C, so a column of distinct keys (the common
    case) costs no per-row Python."""

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


def key_aggregates(right: Table, key_column: str, bring_column: str) -> tuple:
    """The join kernel: ``bring_column`` collapsed to one cell per join key.

    Returns ``(aggregate, matched)``.  ``aggregate`` maps every key of
    ``right.key_column`` that has a non-missing ``bring_column`` cell to
    the mean of those cells (numeric columns) or the first of them, so a
    left join is ``map(aggregate.get, left_keys)``.  ``matched`` holds the
    keys whose aggregate is itself non-missing — all of them, unless a
    mean came out NaN (inf - inf).
    """

    def build():
        keys = join_keys(right, key_column)
        cells = right.column(bring_column)
        numeric = right.column_type(bring_column) == ColumnType.NUMERIC
        # One row per key is the common case, and numpy's mean of one
        # float is 0.0 + that float: the float itself, but for -0.0.
        if numeric and kernels.type_census(cells) <= _FLOAT_OR_NONE:
            # None and NaN (the missing cells) both come out NaN.
            values = np.array(cells, dtype=float) + 0.0
            present = values.tolist()
            kept = (values == values).tolist()
        else:
            if numeric:
                present = [None if is_missing(v) else 0.0 + float(v) for v in cells]
            else:
                present = [None if is_missing(v) else v for v in cells]
            kept = [v is not None for v in present]
        # Only rows with a present cell and a key make an aggregate.
        aggregate = dict(zip(compress(keys, kept), compress(present, kept), strict=True))
        aggregate.pop(None, None)
        # Repeated keys are redone from the cells.
        for k, rows in _repeated_keys(right, key_column):
            group = [cells[i] for i in rows if kept[i]]
            if not group:
                continue
            if numeric:
                # np.mean, not sum()/len(): pairwise summation in
                # numpy's order is part of the pinned result.
                aggregate[k] = float(np.mean([float(v) for v in group]))
            else:
                aggregate[k] = group[0]
        if numeric and np.isnan(
            np.fromiter(aggregate.values(), dtype=float, count=len(aggregate))
        ).any():
            return aggregate, {k for k, v in aggregate.items() if v == v}
        return aggregate, aggregate.keys()

    return right.derived(("join_aggregate", key_column, bring_column), build)


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
        aggregate, _matched = key_aggregates(right, right_on, col)
        out_name = col
        if out_name in out_cols:
            out_name = f"{col}{suffix}" if suffix else f"{right.name}.{col}"
        while out_name in out_cols:
            out_name += "_"
        out_cols[out_name] = list(map(aggregate.get, left_keys))

    return Table(name or left.name, out_cols, source=left.source)


def inner_join(
    left: Table,
    right: Table,
    left_on: str,
    right_on: str,
    name=None,
) -> Table:
    """Inner join keeping the first right match per left row."""
    lookup = build_lookup(right, right_on)
    left_idx = []
    right_idx = []
    for i, k in enumerate(join_keys(left, left_on)):
        rows = lookup.get(k)
        if rows:
            left_idx.append(i)
            right_idx.append(rows[0])

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
    lookup = build_lookup(right, right_on)
    return sum(map(lookup.__contains__, join_keys(left, left_on)))


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
