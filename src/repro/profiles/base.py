"""Profile protocol and the context object profiles are computed from."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataframe.table import Table
from repro.dataframe.types import ColumnType, to_float_array
from repro.utils.rng import ensure_rng


@dataclass
class ProfileContext:
    """Everything a profile may inspect about one candidate augmentation.

    Attributes
    ----------
    base:
        The input dataset ``Din``.
    column_name:
        Name of the augmented column (Definition 4: one projected column).
    column_values:
        The augmented column's cells, row-aligned with ``base`` (missing
        where the join found no match).
    candidate_table:
        The repository table the column comes from (end of the join path).
    overlap_fraction:
        Matched rows / base rows — cardinality of the augmented dataset
        relative to ``Din``.
    sample_size:
        Profiles are estimated on a random sample of this many records
        (the paper uses 100).
    seed:
        Seed for the sampling.
    shared_cache:
        Optional dict shared across the contexts of one profiling pass
        (same base/sample_size/seed).  Sampled base arrays depend only
        on the base table, so candidates reuse them instead of slicing
        per candidate.  Treat every cached array as read-only.
    """

    base: Table
    column_name: str
    column_values: list
    candidate_table: Table
    overlap_fraction: float
    sample_size: int = 100
    seed: int = 0
    shared_cache: dict = field(default=None, repr=False)
    _sample_indices: np.ndarray = field(default=None, repr=False)
    _sampled_column: np.ndarray = field(default=None, repr=False, init=False)

    def shared(self, key, build):
        """``build()``, computed once per profiling pass under ``key``
        (once per call when no shared cache is attached)."""
        cache = self.shared_cache
        if cache is None:
            return build()
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def sample_indices(self) -> np.ndarray:
        """Row indices of the profiling sample (computed once, cached)."""
        if self._sample_indices is None:
            n = self.base.num_rows

            def draw():
                if n <= self.sample_size:
                    return np.arange(n)
                picks = ensure_rng(self.seed).choice(
                    n, size=self.sample_size, replace=False
                )
                return np.sort(picks)

            self._sample_indices = self.shared(
                ("sample_indices", n, self.sample_size, self.seed), draw
            )
        return self._sample_indices

    def sampled_column(self) -> np.ndarray:
        """Augmented column as floats over the profiling sample (coerced
        once per candidate; read-only, every profile gets the same array).
        Only the sampled cells are coerced: coercion is per cell."""
        if self._sampled_column is None:
            values = self.column_values
            sampled = to_float_array([values[i] for i in self.sample_indices().tolist()])
            sampled.flags.writeable = False
            self._sampled_column = sampled
        return self._sampled_column

    def _sampled_base(self, kind: str, column: str) -> np.ndarray:
        source = self.base.numeric if kind == "numeric" else self.base.encoded
        return self.shared(
            (kind, column, self.sample_size, self.seed),
            lambda: source(column)[self.sample_indices()],
        )

    def sampled_base_numeric(self, column: str) -> np.ndarray:
        """A numeric base column over the same profiling sample."""
        return self._sampled_base("numeric", column)

    def sampled_base_encoded(self, column: str) -> np.ndarray:
        """Any base column over the sample, encoded to floats.

        Categorical columns (e.g. a class label) get deterministic codes,
        so correlation/MI profiles can see targets too — the paper computes
        these against *all* attributes of ``Din``.
        """
        return self._sampled_base("encoded", column)

    def comparable_base_columns(self) -> list:
        """Base columns worth correlating against: numeric ones plus
        low-cardinality categoricals (targets, flags).  Listed once per
        profiling pass; treat the list as read-only."""

        def build():
            base = self.base
            comparable = (ColumnType.NUMERIC, ColumnType.CATEGORICAL)
            return [c for c in base.column_names if base.column_type(c) in comparable]

        return self.shared(("comparable_base_columns",), build)


class Profile:
    """A named, task-independent property of an augmentation in [0, 1]."""

    name = "profile"

    def compute(self, context: ProfileContext) -> float:
        """Return the profile value for one augmentation; must be in [0, 1]."""
        raise NotImplementedError

    def _clip(self, value: float) -> float:
        if np.isnan(value):
            return 0.0
        return float(min(1.0, max(0.0, value)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
