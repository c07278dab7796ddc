"""Executable spec of the join kernel (``repro.dataframe.ops.join_gather``
and the joins built on it): the per-row loops it replaced, kept verbatim
below this paragraph apart from taking their missing-value and type rules
from ``repro.kernels.reference`` directly.  ``test_join_diff.py`` holds
``Augmentation.materialize`` and ``materialize_candidates`` overlaps to it
bit for bit; nothing in ``src/`` imports it.

A left join with a one-to-many match aggregates the right side per key
(mean for numeric columns, first value otherwise), one base row at a time.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe.table import Table
from repro.kernels import reference

is_missing = reference.is_missing


def _key(value):
    """Normalized join key for a cell, or None when missing."""
    if is_missing(value):
        return None
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value).strip().lower()


def _aggregate(values, numeric: bool):
    """Collapse multiple matching right-side cells into one."""
    present = [v for v in values if not is_missing(v)]
    if not present:
        return None
    if numeric:
        return float(np.mean([float(v) for v in present]))
    return present[0]


def _is_numeric(cells) -> bool:
    return reference.infer_column_type(cells) == "numeric"


def build_lookup(table: Table, key_column: str) -> dict:
    """Map normalized key -> list of row indices in ``table``."""
    lookup = {}
    for i, cell in enumerate(table.column(key_column)):
        k = _key(cell)
        if k is None:
            continue
        lookup.setdefault(k, []).append(i)
    return lookup


def materialize(steps, output_column: str, base: Table, corpus: dict) -> list:
    """Cells of ``output_column`` at the end of the join path ``steps``
    (``JoinStep`` objects), aligned with ``base`` rows."""
    first = steps[0]
    if first.left_column not in base:
        raise KeyError(f"join column {first.left_column!r} missing from base table")
    keys = None  # raw join-key cells after hop > 0

    for hop, step in enumerate(steps):
        right = corpus.get(step.right_table)
        if right is None:
            raise KeyError(f"table {step.right_table!r} not in corpus")
        lookup = build_lookup(right, step.right_column)
        if hop == 0:
            norm_keys = [_key(cell) for cell in base.column(first.left_column)]
        else:
            norm_keys = [_key(cell) for cell in keys]
        is_last = hop == len(steps) - 1
        bring_column = output_column if is_last else steps[hop + 1].left_column
        bring = right.column(bring_column)
        numeric = _is_numeric(bring)
        next_keys = []
        for k in norm_keys:
            rows = lookup.get(k) if k is not None else None
            if not rows:
                next_keys.append(None)
                continue
            next_keys.append(_aggregate([bring[i] for i in rows], numeric))
        keys = next_keys
    return keys


def overlap(values) -> tuple:
    """``(matched rows, overlap fraction)`` as ``materialize_candidates``
    computed them: one missing-value test per materialized cell."""
    matched = reference.count_non_missing(values)
    return matched, matched / max(1, len(values))
