"""Tests for incremental index maintenance and down-sampling behavior.

The LSH buckets pending batches on its first read, band by band in C
with one merge pass over the keys several items share, so bucket state
is only compared after a ``query``; :class:`PerItemLsh` (the per-item
bucketing it replaced) is the oracle.  Collision merges
walk dict and set orders the hash seed moves, so this file runs under
several ``PYTHONHASHSEED`` values in CI.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.dataframe.table import Table
from repro.discovery.index import ColumnRef, DiscoveryIndex
from repro.discovery.lsh import LshIndex
from repro.discovery.minhash import MinHasher


class PerItemLsh(LshIndex):
    """The LSH's bucketing before batches were bucketed on first read:
    every insert loops over items x bands in Python (kept verbatim)."""

    def _keys(self, signatures: np.ndarray) -> list:
        """Band keys of a signature (a list) or of each matrix row."""
        return (
            np.ascontiguousarray(signatures, dtype=np.uint64).view(self._band).tolist()
        )

    def insert_many(self, items, signatures: np.ndarray) -> None:
        """Index each of ``items`` under its row of the stacked
        ``(len(items), num_perm)`` signature matrix — the hot path of
        warm-start hydration (:meth:`insert` is the one-row case).
        Validates everything before touching any bucket."""
        items = list(items)
        if signatures.shape != (len(items), self.num_perm):
            raise ValueError(
                f"signatures must have shape ({len(items)}, {self.num_perm}), "
                f"got {signatures.shape}"
            )
        duplicates = [item for item in items if item in self._items]
        if duplicates:
            raise ValueError(f"items already indexed: {duplicates!r}")
        if len(set(items)) != len(items):
            raise ValueError("duplicate items within batch")
        for i, (item, keys) in enumerate(zip(items, self._keys(signatures), strict=True)):
            self._items[item] = signatures[i]
            # get-then-add: setdefault(key, set()) would build a set per
            # band and item only to throw it away.
            for buckets, key in zip(self._buckets, keys, strict=True):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {item}
                else:
                    bucket.add(item)

    def remove(self, item) -> None:
        """Drop ``item`` from the index (inverse of :meth:`insert`).

        Only the buckets the item's stored signature hashes to are
        touched, and buckets are sets, so removal is O(bands) even when
        many items share a bucket (e.g. the all-empty-column signature).
        """
        if item not in self._items:
            raise KeyError(f"item {item!r} not indexed")
        signature = self._items.pop(item)
        for buckets, key in zip(self._buckets, self._band_keys(signature), strict=True):
            bucket = buckets.get(key)
            if bucket is None:
                continue
            bucket.discard(item)
            if not bucket:
                del buckets[key]

    def query(self, signature: np.ndarray) -> set:
        """All items sharing at least one band bucket with ``signature``."""
        out = set()
        for buckets, key in zip(self._buckets, self._band_keys(signature), strict=True):
            out.update(buckets.get(key, ()))
        return out


#: Signatures over a three-value alphabet at 8 permutations in 4 bands of
#: 2: most band keys recur across items, and whole rows repeat.
SIGNATURES = st.lists(st.integers(0, 2), min_size=8, max_size=8).map(
    lambda row: np.array(row, dtype=np.uint64)
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.lists(SIGNATURES, max_size=12),
            st.booleans(),  # duplicate the batch's first row into the rest
        ),
        st.tuples(st.just("remove"), st.integers(0, 50)),
        st.tuples(st.just("query"), SIGNATURES),
        st.tuples(st.just("query_item"), st.integers(0, 50)),
    ),
    max_size=25,
)


class TestBulkBucketingMatchesPerItem:
    @settings(max_examples=200, deadline=None)
    @given(operations=OPERATIONS)
    def test_interleaved_operations(self, operations):
        """Every query answers as the per-item bucketing does, and after
        a query the buckets are the same, under any interleaving of
        batches (duplicate rows, band keys shared across items), removals
        and queries."""
        bulk = LshIndex(num_perm=8, bands=4)
        oracle = PerItemLsh(num_perm=8, bands=4)
        live, fresh = [], 0
        for op, *args in operations:
            if op == "insert":
                rows, duplicate = args
                if duplicate and rows:
                    rows = [rows[0]] * len(rows)
                items = [ColumnRef(f"t{fresh + i}", "c") for i in range(len(rows))]
                fresh += len(rows)
                matrix = np.array(rows, dtype=np.uint64).reshape(len(rows), 8)
                bulk.insert_many(items, matrix)
                oracle.insert_many(items, matrix)
                live.extend(items)
            elif op == "remove" and live:
                item = live.pop(args[0] % len(live))
                bulk.remove(item)
                oracle.remove(item)
            elif op == "query":
                assert bulk.query(args[0]) == oracle.query(args[0])
                assert bulk._buckets == oracle._buckets
            elif op == "query_item" and live:
                signature = oracle.signature_of(live[args[0] % len(live)])
                assert bulk.query(signature) == oracle.query(signature)
            assert len(bulk) == len(oracle) == len(live)
        probe = np.zeros(8, dtype=np.uint64)
        assert bulk.query(probe) == oracle.query(probe)
        assert bulk._buckets == oracle._buckets
        for item in live:
            assert np.array_equal(bulk.signature_of(item), oracle.signature_of(item))

    def test_identical_rows_share_every_bucket(self):
        """Portal tables with equal key columns collide in every band:
        one bulk pass leaves one bucket per band holding all of them."""
        lsh = LshIndex(num_perm=8, bands=4)
        items = [f"t{i}" for i in range(5)]
        lsh.insert_many(items, np.ones((5, 8), dtype=np.uint64))
        assert lsh.query(np.ones(8, dtype=np.uint64)) == set(items)
        assert [len(buckets) for buckets in lsh._buckets] == [1] * 4
        assert all(bucket == set(items) for b in lsh._buckets for bucket in b.values())

    def test_batches_wait_for_the_first_read(self):
        """Inserts record at once (length, signatures, duplicate check)
        but bucket only on the first read, all pending batches together."""
        lsh = LshIndex(num_perm=8, bands=4)
        lsh.insert_many(["a", "b"], np.zeros((2, 8), dtype=np.uint64))
        lsh.insert("c", np.zeros(8, dtype=np.uint64))
        assert len(lsh) == 3 and not any(lsh._buckets)
        assert np.array_equal(lsh.signature_of("c"), np.zeros(8, dtype=np.uint64))
        with pytest.raises(ValueError):
            lsh.insert("a", np.zeros(8, dtype=np.uint64))
        assert lsh.query(np.zeros(8, dtype=np.uint64)) == {"a", "b", "c"}
        assert all(len(buckets) == 1 for buckets in lsh._buckets)


class TestLshRemoval:
    def test_remove_then_query(self):
        h = MinHasher(num_perm=16)
        lsh = LshIndex(num_perm=16, bands=8)
        sig = h.signature({"a", "b", "c"})
        lsh.insert("x", sig)
        lsh.insert("y", h.signature({"d", "e"}))
        lsh.remove("x")
        assert len(lsh) == 1
        assert "x" not in lsh.query(sig)
        with pytest.raises(KeyError):
            lsh.signature_of("x")

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            LshIndex(num_perm=16, bands=8).remove("ghost")

    def test_reinsert_after_remove(self):
        h = MinHasher(num_perm=16)
        lsh = LshIndex(num_perm=16, bands=8)
        sig = h.signature({"a"})
        lsh.insert("x", sig)
        lsh.remove("x")
        lsh.insert("x", sig)
        assert "x" in lsh.query(sig)

    def test_empty_buckets_pruned(self):
        h = MinHasher(num_perm=16)
        lsh = LshIndex(num_perm=16, bands=8)
        sig = h.signature({"a"})
        lsh.insert("x", sig)
        lsh.insert("y", h.signature({"b"}))
        assert lsh.query(sig) == {"x"}  # buckets both batches
        assert all(buckets for buckets in lsh._buckets)
        lsh.remove("x")
        lsh.remove("y")
        assert lsh.query(sig) == set()
        assert all(not bucket for bucket in lsh._buckets)


class TestLshBulkInsert:
    def test_matches_individual_inserts(self):
        h = MinHasher(num_perm=16)
        sigs = np.stack([h.signature({f"v{i}", f"w{i}"}) for i in range(5)])
        one = LshIndex(num_perm=16, bands=8)
        for i in range(5):
            one.insert(f"item{i}", sigs[i])
        bulk = LshIndex(num_perm=16, bands=8)
        bulk.insert_many([f"item{i}" for i in range(5)], sigs)
        for i in range(5):
            assert one.query(sigs[i]) == bulk.query(sigs[i])

    def test_bucket_state_equals_a_loop_of_inserts(self):
        """Same buckets, same members, same stored signatures — with
        shared bands (equal signatures, one changed band) in the mix."""
        h = MinHasher(num_perm=16)
        sigs = np.stack([h.signature({f"v{i % 3}", f"w{i}"}) for i in range(9)])
        sigs[4] = sigs[1]
        sigs[5, :2] = sigs[2, :2]
        items = [ColumnRef(f"t{i}", "c") for i in range(9)]
        one = LshIndex(num_perm=16, bands=8)
        for item, sig in zip(items, sigs, strict=True):
            one.insert(item, sig)
        bulk = LshIndex(num_perm=16, bands=8)
        bulk.insert_many(items[:4], sigs[:4])
        bulk.insert_many(items[4:], sigs[4:])
        # Buckets are built on the first read; compare them after one.
        for lsh in (one, bulk):
            assert items[1] in lsh.query(sigs[1])
        assert all(one._buckets) and one._buckets == bulk._buckets
        assert one._items.keys() == bulk._items.keys()
        for item in items:
            assert np.array_equal(one.signature_of(item), bulk.signature_of(item))

    def test_column_ref_hash_survives_pickling(self):
        ref = ColumnRef("t", "c")
        copy = pickle.loads(pickle.dumps(ref))
        assert copy == ref and hash(copy) == hash(ref) == hash(("t", "c"))
        assert {copy: 1}[ref] == 1
        assert "_hash" not in repr(ref)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LshIndex(num_perm=16, bands=8).insert_many(
                ["a"], np.zeros((1, 8), dtype=np.uint64)
            )

    def test_duplicate_rejected(self):
        lsh = LshIndex(num_perm=16, bands=8)
        sig = np.zeros((1, 16), dtype=np.uint64)
        lsh.insert_many(["a"], sig)
        with pytest.raises(ValueError):
            lsh.insert_many(["a"], sig)

    def test_duplicate_within_batch_rejected(self):
        lsh = LshIndex(num_perm=16, bands=8)
        sigs = np.zeros((2, 16), dtype=np.uint64)
        with pytest.raises(ValueError):
            lsh.insert_many(["a", "a"], sigs)
        assert len(lsh) == 0


def two_tables():
    t1 = Table("t1", {"key": ["a", "b", "c"], "v": [1, 2, 3]})
    t2 = Table("t2", {"key": ["a", "b", "d"]})
    return t1, t2


class TestIndexRemoval:
    def test_remove_table_incremental(self):
        t1, t2 = two_tables()
        index = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        index.add_table(t1)
        index.add_table(t2)
        index.remove_table("t2")
        assert "t2" not in index
        assert index.num_indexed_columns == 2
        probe = Table("probe", {"key": ["a", "b", "c"]})
        refs = [ref.table for ref, _ in index.joinable(probe, "key")]
        assert "t2" not in refs and "t1" in refs

    def test_removed_table_can_return(self):
        t1, _ = two_tables()
        index = DiscoveryIndex(num_perm=16, bands=8)
        index.add_table(t1)
        index.remove_table("t1")
        index.add_table(t1)
        assert "t1" in index

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            DiscoveryIndex().remove_table("ghost")

    def test_remove_unsigned_table_leaves_lsh_alone(self):
        t1, t2 = two_tables()
        index = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        index.add_table(t1)
        index.add_table(t2)
        index.column_entries("t1")  # signs t1 only
        index.remove_table("t2")
        assert len(index._lsh) == 2 and not index._unsigned
        assert index.num_indexed_columns == 2


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5, True, "0.3"], ids=repr)
def test_min_containment_validated(bad):
    with pytest.raises(ValueError, match="min_containment"):
        DiscoveryIndex(min_containment=bad)


@pytest.mark.parametrize("bad", [0, -1, True, 2.5, float("nan"), "5"], ids=repr)
def test_max_distinct_validated(bad):
    """0 used to empty every value set and nan to turn down-sampling
    off, silently; -1, True and 2.5 failed only at the first add."""
    with pytest.raises(ValueError, match="max_distinct"):
        DiscoveryIndex(max_distinct=bad)
    with pytest.raises(ValueError, match="max_distinct"):
        Catalog(max_distinct=bad)


@pytest.mark.parametrize(
    "params, name",
    [({"bands": 0}, "bands"), ({"num_perm": 64.0}, "num_perm")],
    ids=repr,
)
def test_lsh_params_validated(params, name):
    """The index's own LSH checks its parameters before anything uses
    them (bands=0 was a ZeroDivisionError, num_perm=64.0 a TypeError)."""
    with pytest.raises(ValueError, match=name):
        DiscoveryIndex(**params)


class TestPrecomputedEntries:
    def test_add_with_entries_matches_cold(self):
        t1, t2 = two_tables()
        cold = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        cold.add_table(t1)
        cold.add_table(t2)

        warm = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        warm.add_table(t1, entries=cold.column_entries("t1"))
        warm.add_table(t2, entries=cold.column_entries("t2"))
        probe = Table("probe", {"key": ["a", "b"]})
        assert warm.joinable(probe, "key") == cold.joinable(probe, "key")

    def test_unknown_entry_column_rejected(self):
        t1, _ = two_tables()
        index = DiscoveryIndex(num_perm=16, bands=8)
        entry = index.compute_column_entries(t1, ["key"])["key"]
        with pytest.raises(ValueError):
            index.add_table(t1, entries={"ghost": entry})

    def test_failed_hydration_leaves_index_clean(self):
        t1, _ = two_tables()
        index = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        narrow = DiscoveryIndex(num_perm=8, bands=4)
        bad = {
            column: entry.signature
            for column, entry in narrow.compute_column_entries(t1).items()
        }
        with pytest.raises(ValueError):
            index.add_table_hydrated(t1, bad)
        assert "t1" not in index  # no half-registered state
        index.add_table(t1)  # retry succeeds cleanly
        assert "t1" in index

    def test_bad_precomputed_entry_leaves_index_clean(self):
        t1, _ = two_tables()
        index = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        narrow = DiscoveryIndex(num_perm=8, bands=4)
        bad = narrow.compute_column_entries(t1)
        with pytest.raises(ValueError):
            index.add_table(t1, entries=bad)
        assert "t1" not in index
        assert index.num_indexed_columns == 0
        index.add_table(t1)
        assert "t1" in index

    def test_hydrated_requires_all_signatures(self):
        t1, _ = two_tables()
        index = DiscoveryIndex(num_perm=16, bands=8)
        sig = index.compute_column_entries(t1, ["key"])["key"].signature
        with pytest.raises(ValueError):
            index.add_table_hydrated(t1, {"key": sig})

    def test_hydrated_with_loader_matches_cold(self):
        t1, t2 = two_tables()
        cold = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        cold.add_table(t1)
        cold.add_table(t2)

        warm = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        calls = []

        def loader(name, columns):
            calls.append((name, columns))
            entries = cold.column_entries(name)
            return {column: entries[column] for column in columns}

        warm.set_entry_loader(loader)
        for table in (t1, t2):
            warm.add_table_hydrated(
                table,
                {
                    column: entry.signature
                    for column, entry in cold.column_entries(table.name).items()
                },
            )
        probe = Table("probe", {"key": ["a", "b"]})
        assert warm.joinable(probe, "key") == cold.joinable(probe, "key")
        # Only the colliding columns were paged, one call per table.
        paged = {(name, column) for name, columns in calls for column in columns}
        assert {(ref.table, ref.column) for ref in warm._entries} == paged
        assert ("t1", "key") in paged and ("t1", "v") not in paged
        assert len({name for name, _ in calls}) == len(calls)
        # column_entries pages the rest of a table in one more call.
        calls.clear()
        assert warm.column_entries("t1") == cold.column_entries("t1")
        assert calls == [("t1", ("v",))]

    def test_hydrated_without_loader_raises_on_query(self):
        t1, _ = two_tables()
        cold = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        cold.add_table(t1)
        warm = DiscoveryIndex(num_perm=16, bands=8, min_containment=0.1)
        warm.add_table_hydrated(
            t1,
            {
                column: entry.signature
                for column, entry in cold.column_entries("t1").items()
            },
        )
        probe = Table("probe", {"key": ["a", "b", "c"]})
        with pytest.raises(KeyError):
            warm.joinable(probe, "key")


class TestDownSampling:
    def big_table(self):
        values = [f"value_{i:05d}" for i in range(400)]
        return Table("big", {"col": values})

    def test_sample_is_not_lexicographic_prefix(self):
        index = DiscoveryIndex(num_perm=16, bands=8, max_distinct=50, seed=0)
        entry = index.compute_column_entries(self.big_table())["col"]
        assert len(entry.distinct) == 50
        lexicographic = set(sorted(f"value_{i:05d}" for i in range(400))[:50])
        assert entry.distinct != lexicographic

    def test_sample_deterministic(self):
        a = DiscoveryIndex(num_perm=16, bands=8, max_distinct=50, seed=0)
        b = DiscoveryIndex(num_perm=16, bands=8, max_distinct=50, seed=0)
        table = self.big_table()
        ea = a.compute_column_entries(table)["col"]
        eb = b.compute_column_entries(table)["col"]
        assert ea.distinct == eb.distinct
        assert np.array_equal(ea.signature, eb.signature)

    def test_sample_varies_with_seed(self):
        table = self.big_table()
        a = DiscoveryIndex(num_perm=16, bands=8, max_distinct=50, seed=0)
        b = DiscoveryIndex(num_perm=16, bands=8, max_distinct=50, seed=7)
        assert (
            a.compute_column_entries(table)["col"].distinct
            != b.compute_column_entries(table)["col"].distinct
        )

    def test_small_columns_keep_all_values(self):
        index = DiscoveryIndex(num_perm=16, bands=8, max_distinct=50)
        table = Table("small", {"col": ["a", "b", "c"]})
        assert index.compute_column_entries(table)["col"].distinct == frozenset(
            {"a", "b", "c"}
        )
