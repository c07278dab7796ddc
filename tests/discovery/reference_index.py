"""Executable spec of the discovery index's lazy signing
(``repro.discovery.index.DiscoveryIndex``): the eager index it replaced.

:class:`EagerIndex` overrides ``add_table``, ``_verified``, ``joinable``
and ``joinable_for_entry`` with the eager code, kept verbatim below this
paragraph: every column is MinHashed and inserted into the LSH when its
table is added, and a query only probes and verifies.
``test_index_lazy_diff.py`` holds the lazy index to it (same
``(ref, containment)`` lists, same order, same candidates); nothing in
``src/`` imports it.

Its containment counts still run on sorted numpy unicode arrays — the
kernels the index once used, kept verbatim below as well — so the index's
set intersection is checked against an independent count.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.dataframe.table import Table
from repro.discovery.index import ColumnEntry, ColumnRef, DiscoveryIndex
from repro.kernels.coerce import str_cells


def sorted_unique_array(strings):
    """Sorted numpy unicode array of ``strings``, or ``None`` when the
    collection is outside the unicode fast path's preconditions."""
    strings = list(strings)
    if not strings:
        return np.empty(0, dtype=np.str_)
    if not str_cells(strings):
        return None
    return np.unique(np.asarray(strings, dtype=np.str_))


def containment_count_arrays(query: np.ndarray, candidate: np.ndarray) -> int:
    """``|Q ∩ C|`` for two sorted-unique unicode arrays."""
    if query.size == 0 or candidate.size == 0:
        return 0
    idx = np.searchsorted(candidate, query)
    idx_clipped = np.minimum(idx, candidate.size - 1)
    return int(((idx < candidate.size) & (candidate[idx_clipped] == query)).sum())


class EagerIndex(DiscoveryIndex):
    """A :class:`DiscoveryIndex` that signs every column up front."""

    def add_table(self, table: Table, entries: dict = None) -> None:
        """Index every column of ``table``.

        ``entries`` optionally supplies precomputed :class:`ColumnEntry`
        objects by column name (e.g. loaded from a persistent catalog); any
        column not covered is computed here.
        """
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already indexed")
        entries = entries or {}
        unknown = set(entries) - set(table.column_names)
        if unknown:
            raise ValueError(
                f"precomputed entries for unknown columns {sorted(unknown)!r} "
                f"of table {table.name!r}"
            )
        # Resolve and validate everything before touching index state, so
        # a bad precomputed entry cannot leave a half-indexed table.
        to_compute = [c for c in table.column_names if not entries.get(c)]
        computed = (
            self.compute_column_entries(table, to_compute) if to_compute else {}
        )
        resolved = {
            column: entries.get(column) or computed[column]
            for column in table.column_names
        }
        for column, entry in resolved.items():
            if entry.signature.shape != (self.num_perm,):
                raise ValueError(
                    f"entry for {table.name}.{column} has signature shape "
                    f"{entry.signature.shape}, expected ({self.num_perm},)"
                )
        refs = [ColumnRef(table.name, column) for column in resolved]
        if refs:
            # One bulk LSH insert (validates before mutating, like the
            # per-column path did via the shape check above).
            self._lsh.insert_many(
                refs, np.stack([entry.signature for entry in resolved.values()])
            )
        self._tables[table.name] = table
        for ref, entry in zip(refs, resolved.values(), strict=True):
            self._entries[ref] = entry

    @staticmethod
    def _normalized_array(entry: ColumnEntry):
        """Sorted unicode array of ``entry.normalized`` for searchsorted
        containment, cached on the entry; ``None`` when the values are
        outside the array fast path (then set intersection is used)."""
        arr = getattr(entry, "_norm_array", False)
        if arr is False:
            arr = sorted_unique_array(entry.normalized)
            object.__setattr__(entry, "_norm_array", arr)
        return arr

    def _verified(self, query_values, signature, exclude_table=None) -> list:
        """LSH probe + containment verification, shared by the live-table
        and stored-entry query paths."""
        query_arr = sorted_unique_array(query_values)
        refs = [
            ref for ref in self._lsh.query(signature) if ref.table != exclude_table
        ]
        self._page_in(refs)
        results = []
        for ref in refs:
            entry = self._entries[ref]
            candidate_arr = (
                self._normalized_array(entry) if query_arr is not None else None
            )
            if candidate_arr is not None:
                count = containment_count_arrays(query_arr, candidate_arr)
            else:
                count = len(query_values & entry.normalized)
            containment = count / len(query_values)
            if containment >= self.min_containment:
                results.append((ref, containment))
        results.sort(key=lambda item: (-item[1], str(item[0])))
        return results

    def joinable(self, table: Table, column: str, exclude_table=None) -> list:
        """Columns joinable with ``table.column``, best-first.

        Returns ``[(ColumnRef, containment)]`` with verified containment of
        the query column's values in the candidate column, filtered by
        ``min_containment``.  ``exclude_table`` suppresses self-joins.
        """
        query_values = kernels.normalize_strings(table.distinct_values(column))
        if not query_values:
            return []
        return self._verified(
            query_values, self._hasher.signature(query_values), exclude_table
        )

    def joinable_for_entry(self, entry: ColumnEntry, exclude_table=None) -> list:
        """Joinable candidates for a column given its stored
        :class:`ColumnEntry` — the catalog-backed query path: no raw table
        values are touched, so Table-I style reports can run entirely from
        persisted artifacts.  Uses the entry's normalized set as the query
        set and its stored signature for the LSH probe; identical to
        :meth:`joinable` whenever the column's values are already
        normalized and were not down-sampled at indexing time.
        """
        if not entry.normalized:
            return []
        return self._verified(entry.normalized, entry.signature, exclude_table)
