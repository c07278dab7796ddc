"""Join paths (Definition 3) and augmentations (Definition 4).

An :class:`Augmentation` is a join path plus a single projected output
column; materializing it yields a column row-aligned with ``Din``.  A
:class:`UnionAugmentation` adds rows instead (the Fig. 4b setting).  Both
expose the same ``apply`` interface METAM's query engine uses.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.dataframe import ops
from repro.dataframe.table import Table


@dataclass(frozen=True)
class JoinStep:
    """One hop: join the current table's ``left_column`` with
    ``right_table.right_column``."""

    left_column: str
    right_table: str
    right_column: str

    def __str__(self) -> str:
        return f"{self.left_column}→{self.right_table}.{self.right_column}"


@dataclass(frozen=True)
class JoinPath:
    """Ordered chain of join steps starting from ``Din``."""

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a join path needs at least one step")
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def final_table(self) -> str:
        return self.steps[-1].right_table

    @property
    def length(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return " ⋈ ".join(str(s) for s in self.steps)


class Augmentation:
    """A join path projected to one output column (Γ(Din, P[j])).

    ``materialize`` walks the chain as one row gather per hop
    (:func:`ops.join_gather`: each key's first row in the right table,
    where that table's per-key aggregate is kept) instead of full joins,
    returning cells aligned with the base table's rows; unmatched rows
    are missing.  Results are cached per live base table:
    entries are ``id(base) -> (weakref, right-table weakrefs, result)``.
    The weakref check guards against id reuse, and its callback drops
    the entry when the base dies; a hit also needs every right-hand
    table on the path to be the same object in the given corpus, since
    the cells come from those tables.
    """

    def __init__(self, path: JoinPath, output_column: str):
        self.path = path
        self.output_column = output_column
        self.aug_id = f"{path}#{output_column}"
        self._cache = {}

    def __repr__(self) -> str:
        return f"Augmentation({self.aug_id!r})"

    def __eq__(self, other):
        if not isinstance(other, Augmentation):
            return NotImplemented
        return self.aug_id == other.aug_id

    def __hash__(self):
        return hash(self.aug_id)

    @property
    def final_table(self) -> str:
        return self.path.final_table

    def _materialized(self, base: Table, corpus: dict) -> tuple:
        """``(cells, matched row count)`` of the output column."""
        steps = self.path.steps
        rights = [corpus.get(step.right_table) for step in steps]
        entry = self._cache.get(id(base))
        if (
            entry is not None
            and entry[0]() is base
            and all(ref() is right for ref, right in zip(entry[1], rights))
        ):
            return entry[2]

        if steps[0].left_column not in base:
            raise KeyError(
                f"join column {steps[0].left_column!r} missing from base table"
            )
        # keys[i] is the current join key for base row i (None = dead row).
        keys = ops.join_keys(base, steps[0].left_column)
        for hop, (step, right) in enumerate(zip(steps, rights)):
            if right is None:
                raise KeyError(f"table {step.right_table!r} not in corpus")
            if hop:
                keys = list(map(ops._key, values))
            is_last = hop == len(steps) - 1
            bring = self.output_column if is_last else steps[hop + 1].left_column
            values, matched = ops.join_gather(right, step.right_column, bring, keys)

        result = values, matched
        self._remember(base, rights, result)
        return result

    def _remember(self, base: Table, rights: list, result: tuple) -> None:
        # The callback reaches the cache through a weakref to ``self``:
        # a strong one would tie the augmentation, its cache and the
        # callback into a cycle only the cyclic collector frees.
        key, owner = id(base), weakref.ref(self)

        def forget(ref):
            augmentation = owner()
            if augmentation is not None:
                entry = augmentation._cache.get(key)
                if entry is not None and entry[0] is ref:
                    augmentation._cache.pop(key, None)

        try:
            self._cache[key] = (
                weakref.ref(base, forget),
                [weakref.ref(right) for right in rights],
                result,
            )
        except TypeError:  # unweakrefable tables are not cached
            pass

    def materialize(self, base: Table, corpus: dict) -> list:
        """Cells of the output column aligned with ``base`` rows."""
        return self._materialized(base, corpus)[0]

    def overlap_fraction(self, base: Table, corpus: dict) -> float:
        """Fraction of base rows with a non-missing materialized value."""
        values, matched = self._materialized(base, corpus)
        return matched / len(values) if values else 0.0

    def apply(self, table: Table, base: Table, corpus: dict) -> Table:
        """Add the materialized column to ``table`` (row-aligned with base)."""
        if table.num_rows != base.num_rows:
            raise ValueError(
                f"table has {table.num_rows} rows but base has {base.num_rows}; "
                "join augmentations require row alignment"
            )
        if self.aug_id in table:
            return table
        return table.with_column(self.aug_id, self.materialize(base, corpus))


class UnionAugmentation:
    """Row-addition augmentation: append a union-compatible table's rows.

    Only columns present in the table being augmented are appended;
    columns the union candidate lacks are padded with missing values.
    """

    def __init__(self, table_name: str, shared_fraction: float):
        self.table_name = table_name
        self.shared_fraction = shared_fraction
        self.aug_id = f"union:{table_name}"

    def __repr__(self) -> str:
        return f"UnionAugmentation({self.table_name!r})"

    def __eq__(self, other):
        if not isinstance(other, UnionAugmentation):
            return NotImplemented
        return self.aug_id == other.aug_id

    def __hash__(self):
        return hash(self.aug_id)

    @property
    def final_table(self) -> str:
        return self.table_name

    def materialize(self, base: Table, corpus: dict) -> list:
        """Representative cells for profiling: the union candidate's first
        shared column, trimmed/padded to base length."""
        other = corpus[self.table_name]
        shared = [c for c in base.column_names if c in other]
        if not shared:
            return [None] * base.num_rows
        cells = list(other.column(shared[0]))
        if len(cells) >= base.num_rows:
            return cells[: base.num_rows]
        return cells + [None] * (base.num_rows - len(cells))

    def overlap_fraction(self, base: Table, corpus: dict) -> float:
        return self.shared_fraction

    def apply(self, table: Table, base: Table, corpus: dict) -> Table:
        """Append the candidate's rows over the current table's columns."""
        other = corpus[self.table_name]
        new_cols = {}
        for c in table.column_names:
            extra = list(other.column(c)) if c in other else [None] * other.num_rows
            new_cols[c] = list(table.column(c)) + extra
        return Table(table.name, new_cols, source=table.source)
