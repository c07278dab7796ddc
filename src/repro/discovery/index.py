"""The discovery index: joinable-column lookup over a table repository.

This is our Aurum substitute.  A *joinable* query returns the columns
whose MinHash signature shares an LSH band bucket with the query's and
whose verified containment passes a threshold.  Like Aurum, the output is
noisy: semantically wrong joins with overlapping value domains do surface
(the paper relies on this — ~60% of discovered candidates are erroneous
in §VI-A).

The per-column state lives in :class:`ColumnEntry` objects (distinct
sample, normalized value set, MinHash signature).  Entries can be
supplied precomputed — that is how the persistent catalog
(:mod:`repro.catalog`) warm-starts an index without re-signing unchanged
tables — and tables can be removed incrementally, so the catalog can keep
an index in sync with a changing corpus without full rebuilds.

A column indexed from its live table is signed on demand.  Adding the
table computes only its value sets; a query first narrows the unsigned
columns to those whose exact containment passes the threshold, then signs
just those survivors in one batch and inserts them into the LSH before
probing.  Both tests are pairwise and exact, so a query returns what it
would have returned had every column been signed up front.  Anything that
reads a signature (:meth:`DiscoveryIndex.signature_of`,
:meth:`DiscoveryIndex.column_entries`) signs first, so no entry leaves the
index unsigned.

A float-or-missing column stays numbers until then: it is held as the
sorted bit patterns of its non-NaN values (:func:`repro.kernels.float_domain`)
and narrowed by probing those with the query strings that are exactly a
float's ``repr`` (:func:`repro.kernels.float_probe`).  A float's repr
round-trips and is already normalized, so that count is the exact
containment, and only a survivor's values are ever turned into strings.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import kernels
from repro.dataframe.table import Table
from repro.discovery.lsh import LshIndex
from repro.discovery.minhash import MinHasher
from repro.utils.validation import check_fraction, check_positive_int


class ColumnRef(NamedTuple):
    """A (table, column) pair in the repository.

    Refs key every LSH bucket a column lands in (one per band); as a
    tuple, a ref hashes in C, to ``hash((table, column))``."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True, eq=False)
class ColumnEntry:
    """Everything the index stores about one column.

    ``distinct`` is the (possibly down-sampled) raw distinct-value set the
    signature was computed from; ``normalized`` is its stripped/lowercased
    form used for containment verification, computed once at indexing time
    instead of on every query.
    """

    distinct: frozenset
    normalized: frozenset
    signature: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, ColumnEntry):
            return NotImplemented
        return (
            self.distinct == other.distinct
            and self.normalized == other.normalized
            and np.array_equal(self.signature, other.signature)
        )

    def __hash__(self):
        # Value sets alone: equal entries (which also match on signature)
        # necessarily hash alike, keeping entries usable in sets/dicts.
        return hash((self.distinct, self.normalized))


def _sample_seed(seed: int, table: str, column: str) -> int:
    """Stable per-column sampling seed (independent of insertion order)."""
    key = f"{seed}:{table}:{column}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


class _Postings:
    """Posting lists of int64 keys over a list of columns, for counting in
    one ``searchsorted`` + ``bincount`` pass how many probe keys each
    column holds.

    ``values`` concatenates every column's keys (``sizes[i]`` of them for
    ``refs[i]``); ``keys`` is their sorted distinct set and
    ``owners[offsets[k]:offsets[k + 1]]`` the positions in ``refs`` of the
    columns holding key ``keys[k]``.
    """

    def __init__(self, refs, sizes, values):
        self.refs = refs
        self.sizes = sizes
        order = np.argsort(values)
        values = values[order]
        self.owners = np.repeat(np.arange(len(refs)), sizes)[order]
        firsts = np.flatnonzero(
            np.concatenate(([values.size > 0], values[1:] != values[:-1]))
        )
        # A largest-possible key with an empty owner range ends ``keys``,
        # so every probe's searchsorted slot is in bounds.
        self.keys = np.append(values[firsts], np.iinfo(np.int64).max)
        self.offsets = np.append(firsts, [values.size, values.size])

    def passing(self, probes, size, theta) -> list:
        """Refs whose count of ``probes`` (and own size), over the query
        size ``size``, reaches ``theta``."""
        at = np.searchsorted(self.keys, probes)
        at = at[self.keys[at] == probes]
        lo = self.offsets[at]
        counts = self.offsets[at + 1] - lo
        # Positions lo[k] .. lo[k] + counts[k] - 1 of every matched probe.
        starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        hits = self.owners[starts + np.arange(starts.size)]
        counts = np.bincount(hits, minlength=len(self.refs))
        keep = (counts / size >= theta) & (self.sizes / size >= theta)
        return [self.refs[i] for i in np.flatnonzero(keep)]


class DiscoveryIndex:
    """Joinable-column index over a corpus of tables.

    Tables added with precomputed entries (or hydrated from signatures)
    arrive signed.  Columns computed here from the live table are signed
    when a query could first return them: a query narrows the unsigned
    columns by exact containment, signs the survivors in one batch and
    inserts them into the LSH, then probes as usual.  An unsigned string
    column waits as its value sets, narrowed by value hashes and
    confirmed by set intersection; an unsigned float-or-missing column
    waits as its float domain, narrowed exactly on bit patterns, and
    becomes strings only when signed.  Narrowing and signing run under
    one per-index lock, so queries on a shared index stay safe.

    Parameters
    ----------
    num_perm / bands:
        MinHash/LSH resolution (bands must divide num_perm).
    min_containment:
        Verified containment |Q ∩ C| / |Q| threshold for a candidate
        column C given query column Q.
    max_distinct:
        Columns with more distinct values than this are still indexed but
        down-sampled with a seeded uniform sample (keeps signatures cheap
        on wide corpora without biasing containment estimates).  An int
        >= 1.
    """

    def __init__(
        self,
        num_perm: int = 64,
        bands: int = 16,
        min_containment: float = 0.25,
        max_distinct: int = 5000,
        seed: int = 0,
    ):
        check_fraction(min_containment, "min_containment")
        check_positive_int(max_distinct, "max_distinct")
        # The LSH validates num_perm and bands, so it is built first.
        self._lsh = LshIndex(num_perm=num_perm, bands=bands)
        self._hasher = MinHasher(num_perm=num_perm, seed=seed)
        self.num_perm = num_perm
        self.bands = bands
        self.min_containment = min_containment
        self.max_distinct = max_distinct
        self.seed = seed
        self._entries = {}
        self._tables = {}
        self._entry_loader = None
        # Columns not yet signed: ref -> (distinct, normalized), or the
        # float domain array of a float-or-missing column.  They are in
        # neither ``_entries`` nor the LSH.
        self._unsigned = {}
        # Posting lists over ``_unsigned`` for narrowing, one per
        # representation; None means stale (lazy columns were added since
        # the last build).
        self._narrowing = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def tables(self) -> dict:
        """Indexed tables by name (a copy — use :meth:`get_table` for
        single lookups on hot paths)."""
        return dict(self._tables)

    def get_table(self, table_name: str):
        """Indexed Table by name without copying the registry, or ``None``
        (the per-table hot-path complement of the :attr:`tables` copy)."""
        return self._tables.get(table_name)

    @property
    def num_indexed_columns(self) -> int:
        """Indexed columns, signed or not."""
        return len(self._lsh) + len(self._unsigned)

    @property
    def config(self) -> dict:
        """Construction parameters (what a catalog must match to reuse
        persisted signatures)."""
        return {
            "num_perm": self.num_perm,
            "bands": self.bands,
            "min_containment": self.min_containment,
            "max_distinct": self.max_distinct,
            "seed": self.seed,
        }

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables

    def _distinct_sample(self, table: Table, column: str) -> set:
        """The column's (possibly down-sampled) distinct-value set."""
        distinct = table.distinct_values(column)
        if len(distinct) > self.max_distinct:
            rng = np.random.default_rng(
                _sample_seed(self.seed, table.name, column)
            )
            picks = rng.choice(
                sorted(distinct), size=self.max_distinct, replace=False
            )
            distinct = set(picks.tolist())
        return distinct

    def compute_column_entries(self, table: Table, columns=None) -> dict:
        """Signed entries (signature + value sets) for ``columns`` of
        ``table`` (default: all of them) with one batched signing pass —
        the MinHash permutation work runs as a few large kernel calls
        instead of one per column.
        """
        columns = table.column_names if columns is None else list(columns)
        distincts = [self._distinct_sample(table, column) for column in columns]
        signatures = self._hasher.signatures(distincts)
        normalized = kernels.normalize_many(distincts)
        return {
            column: ColumnEntry(
                distinct=frozenset(distinct),
                normalized=frozenset(normalized[i]),
                signature=signatures[i],
            )
            for i, (column, distinct) in enumerate(zip(columns, distincts, strict=True))
        }

    def add_table(self, table: Table, entries: dict = None) -> None:
        """Index every column of ``table``.

        ``entries`` optionally supplies precomputed :class:`ColumnEntry`
        objects by column name (e.g. loaded from a persistent catalog);
        those columns arrive signed.  Any column not covered gets its
        value sets computed here and is signed when a query could first
        return it.
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
        signed = {c: entries[c] for c in table.column_names if entries.get(c)}
        for column, entry in signed.items():
            if entry.signature.shape != (self.num_perm,):
                raise ValueError(
                    f"entry for {table.name}.{column} has signature shape "
                    f"{entry.signature.shape}, expected ({self.num_perm},)"
                )
        lazy = [c for c in table.column_names if c not in signed]
        pending, strings = {}, []
        for column in lazy:
            domain = kernels.float_domain(table.column(column))
            # A domain over max_distinct keeps the string path: its seeded
            # down-sample draws from the sorted strings.
            if domain is not None and domain.size <= self.max_distinct:
                pending[column] = domain
            else:
                strings.append(column)
        distincts = [self._distinct_sample(table, column) for column in strings]
        normalized = kernels.normalize_many(distincts)
        for column, distinct, norm in zip(strings, distincts, normalized, strict=True):
            pending[column] = (frozenset(distinct), frozenset(norm))
        refs = [ColumnRef(table.name, column) for column in signed]
        with self._lock:
            if refs:
                # insert_many validates before mutating any bucket.
                self._lsh.insert_many(
                    refs, np.stack([entry.signature for entry in signed.values()])
                )
            self._tables[table.name] = table
            self._entries.update(zip(refs, signed.values(), strict=True))
            for column in lazy:
                self._unsigned[ColumnRef(table.name, column)] = pending[column]
            if lazy:
                self._narrowing = None

    def add_table_hydrated(self, table: Table, signatures: dict) -> None:
        """Index a table from precomputed signatures alone (warm start).

        ``signatures`` maps every column name to its MinHash signature;
        the LSH records them in one bulk insert and buckets every table
        hydrated this way in one pass on the first query, while the
        value sets needed for containment verification are fetched
        lazily through the entry loader (:meth:`set_entry_loader`) on the
        first query that collides with one of this table's columns.
        """
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already indexed")
        missing = set(table.column_names) - set(signatures)
        if missing:
            raise ValueError(
                f"signatures missing for columns {sorted(missing)!r} "
                f"of table {table.name!r}"
            )
        refs = [ColumnRef(table.name, column) for column in table.column_names]
        matrix = np.stack([signatures[ref.column] for ref in refs])
        # insert_many validates shape before mutating; register the table
        # only once the insert succeeded, so failures leave no trace.
        # The LSH buckets the batch on its next read, under this lock.
        with self._lock:
            self._lsh.insert_many(refs, matrix)
            self._tables[table.name] = table

    def set_entry_loader(self, loader) -> None:
        """Install the lazy entry source for hydrated tables.

        ``loader(table_name, columns)`` must return ``{column:
        ColumnEntry}`` covering at least ``columns`` (a tuple of that
        table's column names); extra columns it returns are kept too.
        The index holds the loader strongly, so a loader that reaches
        back to whatever owns this index must do so through a weak
        reference (the catalog's does) — otherwise owner and index form
        a cycle that keeps every indexed ``Table`` alive until a cyclic
        collection.
        """
        self._entry_loader = loader

    def _page_in(self, refs) -> None:
        """Load the entries of ``refs`` not yet in memory: one loader
        call per table, for just the missing columns."""
        missing = {}
        for ref in refs:
            if ref not in self._entries:
                missing.setdefault(ref.table, []).append(ref.column)
        if not missing:
            return
        if self._entry_loader is None:
            raise KeyError(
                f"no entries for {sorted(missing)!r} and no entry loader installed"
            )
        for table, columns in missing.items():
            for column, entry in self._entry_loader(table, tuple(columns)).items():
                self._entries.setdefault(ColumnRef(table, column), entry)

    def remove_table(self, table_name: str) -> None:
        """Drop a table and all its column entries (incremental; touches
        only this table's LSH buckets)."""
        if table_name not in self._tables:
            raise KeyError(f"table {table_name!r} not indexed")
        with self._lock:
            table = self._tables.pop(table_name)
            for column in table.column_names:
                ref = ColumnRef(table_name, column)
                self._entries.pop(ref, None)
                if self._unsigned.pop(ref, None) is None:
                    self._lsh.remove(ref)

    def signature_of(self, ref: ColumnRef) -> np.ndarray:
        """MinHash signature of an indexed column (signed on demand)."""
        with self._lock:
            if ref in self._unsigned:
                self._sign([ref])
        return self._lsh.signature_of(ref)

    def rebind_table(self, table: Table) -> None:
        """Swap the stored Table object for an equal-content newcomer.

        Used by the catalog when a refresh sees an unchanged fingerprint:
        the index keeps its entries but points at the current corpus
        object instead of pinning the previous generation in memory.
        """
        if table.name not in self._tables:
            raise KeyError(f"table {table.name!r} not indexed")
        self._tables[table.name] = table

    def column_entries(self, table_name: str) -> dict:
        """Stored :class:`ColumnEntry` objects of one table, by column
        (signs unsigned columns and forces lazy entries to load)."""
        if table_name not in self._tables:
            raise KeyError(f"table {table_name!r} not indexed")
        refs = [
            ColumnRef(table_name, column)
            for column in self._tables[table_name].column_names
        ]
        with self._lock:
            self._sign([ref for ref in refs if ref in self._unsigned])
        self._page_in(refs)
        return {ref.column: self._entries[ref] for ref in refs}

    def build(self, corpus) -> "DiscoveryIndex":
        """Index every table in ``corpus`` (iterable of Tables)."""
        for table in corpus:
            self.add_table(table)
        return self

    # ------------------------------------------------------------------
    def _sign(self, refs) -> None:
        """MinHash the unsigned ``refs`` in one batch and insert them into
        the LSH with one bulk insert (caller holds ``_lock``).  The one
        place a float domain becomes strings: its reprs are both value
        sets, as :func:`repro.kernels.float_domain` documents."""
        if not refs:
            return
        pending = []
        for ref in refs:
            value_sets = self._unsigned[ref]
            if isinstance(value_sets, np.ndarray):
                distinct = frozenset(map(repr, value_sets.view(np.float64).tolist()))
                value_sets = (distinct, distinct)
            pending.append(value_sets)
        signatures = self._hasher.signatures([distinct for distinct, _ in pending])
        self._lsh.insert_many(refs, signatures)
        for i, (ref, (distinct, normalized)) in enumerate(zip(refs, pending, strict=True)):
            self._entries[ref] = ColumnEntry(distinct, normalized, signatures[i])
            del self._unsigned[ref]
        if not self._unsigned:
            self._narrowing = None  # nothing left to narrow: free the arrays

    def _narrowing_arrays(self):
        """``(strings, floats)`` posting lists over the unsigned columns,
        each a :class:`_Postings`: ``strings`` keyed by the ``hash()`` of
        the string columns' normalized values, ``floats`` by the float
        columns' bit patterns.  Built once, rebuilt only after lazy tables
        were added (caller holds ``_lock``)."""
        if self._narrowing is None:
            strings, floats = {}, {}
            for ref, value_sets in self._unsigned.items():
                if isinstance(value_sets, np.ndarray):
                    floats[ref] = value_sets
                else:
                    strings[ref] = value_sets[1]
            sizes = np.fromiter(map(len, strings.values()), np.int64, len(strings))
            hashes = np.fromiter(
                map(hash, itertools.chain.from_iterable(strings.values())),
                np.int64,
                int(sizes.sum()),
            )
            self._narrowing = (
                _Postings(list(strings), sizes, hashes),
                _Postings(
                    list(floats),
                    np.fromiter(map(len, floats.values()), np.int64, len(floats)),
                    np.concatenate([np.empty(0, np.int64), *floats.values()]),
                ),
            )
        return self._narrowing

    def _sign_survivors(self, query_values, exclude_table) -> None:
        """Sign every unsigned column a query with ``query_values`` could
        return: containment ``>= min_containment`` and not in
        ``exclude_table`` (caller holds ``_lock``).

        String columns: value hashes give an upper bound on each column's
        overlap (a hash collision can only over-count); the columns the
        bound keeps are confirmed exactly.  Float columns: the query's
        float reprs, as bit patterns, count the overlap exactly.
        """
        if not self._unsigned:
            return
        strings, floats = self._narrowing_arrays()
        size = len(query_values)
        theta = self.min_containment
        survivors = []
        if strings.refs:
            probes = np.fromiter(map(hash, query_values), np.int64, size)
            for ref in strings.passing(probes, size, theta):
                pending = self._unsigned.get(ref)
                if pending is None or ref.table == exclude_table:
                    continue  # excluded, or signed or removed since the build
                if len(query_values & pending[1]) / size >= theta:
                    survivors.append(ref)
        if floats.refs:
            probes = kernels.float_probe(query_values)
            for ref in floats.passing(probes, size, theta):
                if ref in self._unsigned and ref.table != exclude_table:
                    survivors.append(ref)
        self._sign(survivors)

    def joinable(self, table: Table, column: str, exclude_table=None) -> list:
        """Columns joinable with ``table.column``, best-first.

        Returns ``[(ColumnRef, containment)]`` with verified containment of
        the query column's values in the candidate column, filtered by
        ``min_containment``.  ``exclude_table`` suppresses self-joins.
        Signs the unsigned columns the query could return, then probes
        the LSH and verifies containment.
        """
        query_values = kernels.normalize_strings(table.distinct_values(column))
        if not query_values:
            return []
        signature = self._hasher.signature(query_values)
        with self._lock:
            self._sign_survivors(query_values, exclude_table)
            refs = [
                ref for ref in self._lsh.query(signature) if ref.table != exclude_table
            ]
        self._page_in(refs)
        results = []
        for ref in refs:
            containment = len(query_values & self._entries[ref].normalized) / len(
                query_values
            )
            if containment >= self.min_containment:
                results.append((ref, containment))
        results.sort(key=lambda item: (-item[1], str(item[0])))
        return results

    def joinable_columns(self) -> set:
        """Table I's '#Joinable Columns': the indexed columns that some
        column of another table reaches.

        Signs every unsigned column and pages every entry in, then
        queries with each column's stored normalized set and stored
        signature, so a report over stored entries (the catalog's) and
        one over live tables count alike.  Membership does not depend on
        query order, so a column once counted is not verified again.
        """
        refs = [
            ColumnRef(name, column)
            for name, table in self._tables.items()
            for column in table.column_names
        ]
        with self._lock:
            self._sign([ref for ref in refs if ref in self._unsigned])
        self._page_in(refs)
        found = set()
        for ref in refs:
            entry = self._entries[ref]
            if not entry.normalized:
                continue
            with self._lock:
                hits = self._lsh.query(entry.signature)
            for hit in hits:
                if hit.table == ref.table or hit in found:
                    continue
                overlap = len(entry.normalized & self._entries[hit].normalized)
                if overlap / len(entry.normalized) >= self.min_containment:
                    found.add(hit)
        return found
