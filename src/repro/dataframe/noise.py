"""Noise models for Definition 1 (noisy structured data).

Open-data tables frequently have missing headers, duplicated tuples and
missing cells; the corpus generator uses these transforms to make the
synthetic repository faithfully messy.
"""

from __future__ import annotations

from repro.dataframe.table import Table
from repro.utils.rng import ensure_rng


def drop_headers(table: Table, fraction: float, seed=None) -> Table:
    """Replace a fraction of column names with positional placeholders."""
    rng = ensure_rng(seed)
    names = table.column_names
    n_drop = int(round(fraction * len(names)))
    drop = set(rng.choice(len(names), size=min(n_drop, len(names)), replace=False))
    cols = {}
    for i, c in enumerate(names):
        key = f"_col_{i}" if i in drop else c
        while key in cols:
            key += "_"
        cols[key] = list(table.column(c))
    return Table(table.name, cols, source=table.source)


def inject_missing_values(table: Table, fraction: float, seed=None) -> Table:
    """Set a fraction of cells (uniformly at random) to missing."""
    rng = ensure_rng(seed)
    cols = {}
    for c in table.column_names:
        cells = list(table.column(c))
        n_missing = int(round(fraction * len(cells)))
        if n_missing:
            hit = rng.choice(len(cells), size=n_missing, replace=False)
            for i in hit:
                cells[int(i)] = None
        cols[c] = cells
    return Table(table.name, cols, source=table.source)


def duplicate_rows(table: Table, fraction: float, seed=None) -> Table:
    """Append duplicated tuples (a fraction of the row count)."""
    rng = ensure_rng(seed)
    n_dup = int(round(fraction * table.num_rows))
    if n_dup == 0 or table.num_rows == 0:
        return table.copy()
    picks = [int(i) for i in rng.integers(0, table.num_rows, size=n_dup)]
    indices = list(range(table.num_rows)) + picks
    return table.select_rows(indices)
