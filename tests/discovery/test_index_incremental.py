"""Tests for incremental index maintenance and down-sampling behavior."""

import pickle

import numpy as np
import pytest

from repro.dataframe.table import Table
from repro.discovery.index import ColumnRef, DiscoveryIndex
from repro.discovery.lsh import LshIndex
from repro.discovery.minhash import MinHasher


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
        lsh.insert("x", h.signature({"a"}))
        lsh.remove("x")
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
        assert one._buckets == bulk._buckets
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
