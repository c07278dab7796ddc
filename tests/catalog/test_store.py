"""Tests for the content-addressed catalog store."""

import io
import json
import os

import numpy as np
import pytest

from repro.catalog import CatalogStore, table_fingerprint
from repro.catalog.fingerprint import shard_of
from repro.catalog.store import VERSION, CatalogStoreError
from repro.dataframe.table import Table
from repro.discovery.index import ColumnEntry


def make_entry(values, num_perm=8):
    from repro.discovery.minhash import MinHasher

    distinct = frozenset(values)
    return ColumnEntry(
        distinct=distinct,
        normalized=frozenset(v.strip().lower() for v in distinct),
        signature=MinHasher(num_perm=num_perm).signature(distinct),
    )


@pytest.fixture
def store(tmp_path):
    return CatalogStore(str(tmp_path / "cat"))


class TestFingerprint:
    def test_deterministic(self):
        a = Table("t", {"x": [1, 2], "y": ["a", None]})
        b = Table("t", {"x": [1, 2], "y": ["a", None]})
        assert table_fingerprint(a) == table_fingerprint(b)

    def test_sensitive_to_content_name_and_type(self):
        base = Table("t", {"x": [1, 2]})
        assert table_fingerprint(base) != table_fingerprint(Table("t", {"x": [1, 3]}))
        assert table_fingerprint(base) != table_fingerprint(Table("u", {"x": [1, 2]}))
        assert table_fingerprint(base) != table_fingerprint(Table("t", {"x": ["1", "2"]}))
        assert table_fingerprint(base) != table_fingerprint(Table("t", {"x": [1.0, 2.0]}))

    def test_sensitive_to_column_rename(self):
        assert table_fingerprint(Table("t", {"x": [1]})) != table_fingerprint(
            Table("t", {"y": [1]})
        )


class TestObjects:
    def test_entries_hashable(self):
        a, b = make_entry({"a", "b"}), make_entry({"a", "b"})
        assert a == b
        assert len({a, b}) == 1

    def test_roundtrip(self, store):
        entries = {"c1": make_entry({"a", "b"}), "c2": make_entry({"X ", "y"})}
        store.write_object("fp1", {"name": "t"}, entries)
        meta, loaded = store.read_object("fp1")
        assert meta == {"name": "t"}
        assert loaded == entries
        assert loaded["c2"].normalized == frozenset({"x", "y"})

    def test_missing_object_raises(self, store):
        with pytest.raises(KeyError):
            store.read_object("nope")

    def test_gc_keeps_live(self, store):
        store.write_object("live", {}, {"c": make_entry({"a"})})
        store.write_object("dead", {}, {"c": make_entry({"b"})})
        assert store.gc(["live"]) == 1
        assert store.list_objects() == ["live"]


class TestManifest:
    def test_roundtrip(self, store):
        assert store.read_manifest() is None
        store.write_manifest({"num_perm": 8}, {"t": "fp"})
        manifest = store.read_manifest()
        assert manifest["version"] == VERSION
        assert manifest["config"] == {"num_perm": 8}
        assert manifest["tables"] == {"t": "fp"}

    def test_version_mismatch_rejected(self, store, tmp_path):
        store.write_manifest({}, {})
        import json

        payload = json.load(open(store.manifest_path))
        payload["version"] = 99
        json.dump(payload, open(store.manifest_path, "w"))
        with pytest.raises(CatalogStoreError):
            store.read_manifest()


class TestSnapshot:
    def test_roundtrip(self, store):
        rows = [
            ("t1", "fp1", "a", np.arange(8, dtype=np.uint64)),
            ("t1", "fp1", "b", np.arange(8, 16, dtype=np.uint64)),
            ("t2", "fp2", "a", np.arange(16, 24, dtype=np.uint64)),
        ]
        store.write_snapshot(rows)
        snap = store.read_snapshot()
        assert set(snap) == {"t1", "t2"}
        fingerprint, signatures = snap["t1"]
        assert fingerprint == "fp1"
        assert np.array_equal(signatures["b"], rows[1][3])

    def test_absent_snapshot_is_none(self, store):
        assert store.read_snapshot() is None

    def test_corrupt_snapshot_treated_as_absent(self, store):
        import os

        os.makedirs(store.root, exist_ok=True)
        with open(store.snapshot_path, "wb") as handle:
            handle.write(b"not an npz file")
        assert store.read_snapshot() is None

    def test_corrupt_object_raises_store_error(self, store):
        store.write_object("fp", {}, {"c": make_entry({"a"})})
        path = store._object_path("fp")
        with open(path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(CatalogStoreError):
            store.read_object("fp")
        with open(path, "w") as handle:
            handle.write('{"meta": {}, "columns": {"c": {}}}')
        with pytest.raises(CatalogStoreError):
            store.read_object("fp")
        # JSON-valid but wrong-typed signature data is corruption too.
        with open(path, "w") as handle:
            handle.write(
                '{"meta": {}, "columns": {"c": {"distinct": [],'
                ' "signature": ["abc"]}}}'
            )
        with pytest.raises(CatalogStoreError):
            store.read_object("fp")


class TestProfiles:
    def test_roundtrip_and_overwrite(self, store):
        store.write_profiles("base", {"k1": np.array([0.1, 0.9])})
        loaded = store.read_profiles("base")
        assert np.allclose(loaded["k1"], [0.1, 0.9])
        store.write_profiles("base", {**loaded, "k2": np.array([0.5])})
        assert set(store.read_profiles("base")) == {"k1", "k2"}

    def test_unknown_base_is_empty(self, store):
        assert store.read_profiles("missing") == {}

    def test_corrupt_profiles_degrade_to_empty(self, store):
        store.write_profiles("base", {"k": np.array([0.5])})
        with open(store._profile_path("base"), "w") as handle:
            handle.write("{broken")
        assert store.read_profiles("base") == {}
        with open(store._profile_path("base"), "w") as handle:
            handle.write('{"entries": {"k": ["abc"]}}')
        assert store.read_profiles("base") == {}
        # And the next flush repairs the file.
        store.write_profiles("base", {"k2": np.array([0.7])})
        assert set(store.read_profiles("base")) == {"k2"}


class TestProfileGroupLayout:
    """A group is one ``.npz`` of three arrays, whatever its size."""

    def group(self, n_keys=82, dim=13):
        rng = np.random.default_rng(0)
        return {f"{i:032x}": rng.normal(size=dim) for i in range(n_keys)}

    def test_three_members_and_exact_values(self, store):
        entries = self.group()
        entries["ragged"] = np.array([-0.0, np.inf, np.nan])
        store.write_profiles("base", entries)
        with np.load(store._profile_path("base")) as payload:
            assert sorted(payload.files) == ["keys", "lengths", "vectors"]
            assert [k.decode() for k in payload["keys"].tolist()] == sorted(entries)
            assert payload["vectors"].dtype == np.dtype("<f8")
        loaded = store.read_profiles("base")
        assert list(loaded) == sorted(entries)
        for key, vector in entries.items():
            assert loaded[key].tobytes() == np.asarray(vector, dtype=float).tobytes()

    def test_smaller_than_one_member_per_key(self, store):
        entries = self.group()
        store.write_profiles("base", entries)
        per_key = io.BytesIO()
        np.savez(per_key, **entries)
        assert os.path.getsize(store._profile_path("base")) < len(per_key.getvalue()) * 0.6

    def test_empty_group_round_trips(self, store):
        store.write_profiles("base", {})
        assert store.read_profiles("base") == {}
        assert store.verify()["problems"] == []

    @pytest.mark.parametrize(
        "payload",
        [
            {"k": np.array([0.5])},  # one member per key: the old layout
            {"keys": np.array([b"a"]), "lengths": np.array([2]), "vectors": np.ones(1)},
            {"keys": np.array([b"a"]), "lengths": np.array([-1]), "vectors": np.ones(0)},
            {"keys": np.array([1]), "lengths": np.array([1]), "vectors": np.ones(1)},
            {"keys": np.array([b"\xff"]), "lengths": np.array([1]), "vectors": np.ones(1)},
            {"keys": np.array([b"a"]), "lengths": np.array([1]), "vectors": np.ones((1, 1))},
        ],
        ids=["per-key", "short", "negative", "int-keys", "bad-utf8", "2-d"],
    )
    def test_malformed_group_is_corrupt(self, store, payload):
        store.write_profiles("base", {"k": np.array([0.5])})
        with open(store._profile_path("base"), "wb") as handle:
            np.savez(handle, **payload)
        assert store.read_profiles("base") == {}
        assert any("corrupt archive" in p for p in store.verify()["problems"])

    @pytest.mark.parametrize(
        "entries",
        [{"k": np.ones((2, 2))}, {"k": 0.5}, {"k\x00": np.ones(2)}],
        ids=["2-d", "scalar", "trailing-nul"],
    )
    def test_unstorable_entries_rejected(self, store, entries):
        with pytest.raises(ValueError, match="1-D vector"):
            store.write_profiles("base", entries)
        assert store.list_profile_groups() == []


class TestStats:
    def test_counts_and_footprint(self, store):
        store.write_manifest({"num_perm": 8}, {"t": "fp"})
        store.write_object("fp", {}, {"c": make_entry({"a"})})
        store.write_profiles("base", {"k": np.array([0.5])})
        stats = store.stats()
        assert stats["version"] == VERSION
        assert stats["tables"] == 1
        assert stats["objects"] == 1
        assert stats["profile_entries"] == 1
        assert stats["profile_bytes"] > 0
        assert stats["disk_bytes"] > 0
        assert os.path.isdir(store.root)


class TestShardedLayout:
    def test_objects_land_in_hash_prefix_directories(self, store):
        store.write_object("someid", {}, {"c": make_entry({"a"})})
        shard = shard_of("someid")
        assert len(shard) == 2
        path = os.path.join(store.root, "objects", shard, "someid.bin")
        assert os.path.exists(path)
        assert store._object_path("someid") == path
        # The file is the whole object: nothing else lands in the shard.
        assert sorted(os.listdir(os.path.dirname(path))) == [".lock", "someid.bin"]

    def test_shards_spread_across_directories(self, store):
        for i in range(64):
            store.write_object(f"fp{i:03d}", {}, {"c": make_entry({str(i)})})
        objects_dir = os.path.join(store.root, "objects")
        shards = [d for d in os.listdir(objects_dir)
                  if os.path.isdir(os.path.join(objects_dir, d))]
        assert len(shards) > 10  # 64 keys over 256 shards: heavy reuse is a bug
        assert sorted(store.list_objects()) == [f"fp{i:03d}" for i in range(64)]

    def test_delete_object_leaves_only_the_lock(self, store):
        store.write_object("gone", {}, {"c": make_entry({"a"})})
        shard_dir = os.path.dirname(store._object_path("gone"))
        store.delete_object("gone")
        assert not store.has_object("gone")
        assert os.listdir(shard_dir) == [".lock"]

    def test_profiles_land_in_hash_prefix_directories(self, store):
        store.write_profiles("basefp", {"k": np.array([0.5])})
        path = os.path.join(
            store.root, "profiles", shard_of("basefp"), "basefp.npz"
        )
        assert os.path.exists(path)
        assert store.list_profile_groups() == ["basefp"]


class TestObjectHealing:
    def test_vanished_file_reads_as_missing(self, store):
        # The file vanished under a reader: reads report a clean miss
        # (KeyError → caller recomputes), never crash or serve something
        # else.
        store.write_object("fp", {}, {"c": make_entry({"a"})})
        os.remove(store._object_path("fp"))
        assert not store.has_object("fp")
        with pytest.raises(KeyError):
            store.read_object("fp")
        # A rewrite heals it.
        store.write_object("fp", {}, {"c": make_entry({"a"})}, overwrite=True)
        assert store.read_object("fp")[1]["c"] == make_entry({"a"})

    def test_truncated_binary_object_raises_store_error(self, store):
        store.write_object("fp", {}, {"c": make_entry({"a", "b", "c"})})
        path = store._object_path("fp")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(CatalogStoreError):
            store.read_object("fp")


class TestReadObjectMeta:
    def test_meta_matches_full_read(self, store):
        meta = {"name": "t", "num_rows": 3, "size_bytes": 99}
        store.write_object("fp", meta, {"c": make_entry({"a"})})
        assert store.read_object_meta("fp") == meta
        assert store.read_object("fp")[0] == meta

    def test_missing_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.read_object_meta("nope")


class TestLegacyLayoutReadThrough:
    def test_stray_json_in_objects_root_is_ignored(self, store):
        # Satellite fix: a non-object *.json planted in the objects root
        # (editor droppings, notes, a copied manifest) must never be
        # reported as a fingerprint — gc would "delete" it.
        os.makedirs(os.path.join(store.root, "objects"), exist_ok=True)
        stray = os.path.join(store.root, "objects", "NOTES.json")
        with open(stray, "w") as handle:
            json.dump({"scratch": True}, handle)
        assert store.list_objects() == []
        store.gc([])
        assert os.path.exists(stray)


class TestProfileEviction:
    def clock(self, monkeypatch):
        import repro.catalog.store as store_module

        ticks = iter(range(1, 10_000))
        monkeypatch.setattr(store_module, "_now", lambda: float(next(ticks)))

    def test_eviction_drops_the_least_recently_written(self, tmp_path, monkeypatch):
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        vector = np.arange(64, dtype=float)
        store.write_profiles("a", {"k": vector})  # t=1
        store.write_profiles("b", {"k": vector})  # t=2
        assert store.evict_profiles(_group_bytes(store, "b"))[0] == 1
        assert store.list_profile_groups() == ["b"]
        store.write_profiles("c", {"k": vector})  # t=3
        assert store.evict_profiles(_group_bytes(store, "c"))[0] == 1
        assert store.list_profile_groups() == ["c"]

    def test_reads_refresh_lru_position(self, tmp_path, monkeypatch):
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        vector = np.arange(64, dtype=float)
        store.write_profiles("a", {"k": vector})  # t=1
        store.write_profiles("b", {"k": vector})  # t=2
        assert store.read_profiles("a")  # t=3: a is now the hottest
        evicted, freed = store.evict_profiles(_group_bytes(store, "a"))
        assert evicted == 1
        assert freed > 0
        assert store.list_profile_groups() == ["a"]

    def test_writes_never_evict(self, tmp_path, monkeypatch):
        # Eviction runs on demand only: a flush keeps every group.
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        for group in ("a", "b", "c"):
            store.write_profiles(group, {"k": np.array([1.0])})
        assert store.list_profile_groups() == ["a", "b", "c"]

    def test_within_budget_evicts_nothing(self, tmp_path, monkeypatch):
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_profiles("a", {"k": np.array([1.0])})
        assert store.evict_profiles(10**9) == (0, 0)
        assert store.profile_bytes() > 0

    def test_eviction_orders_by_file_mtime(self, tmp_path, monkeypatch):
        """Recency is the group file's mtime and nothing else: a group
        whose mtime is moved back (by any tool) is the first evicted."""
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        vector = np.arange(8, dtype=float)
        store.write_profiles("a", {"k": vector})  # t=1
        store.write_profiles("b", {"k": vector})  # t=2
        os.utime(store._profile_path("b"), (0.5, 0.5))
        evicted, _freed = store.evict_profiles(_group_bytes(store, "a"))
        assert evicted == 1
        assert store.list_profile_groups() == ["a"]

    def test_read_moves_the_group_mtime(self, tmp_path, monkeypatch):
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_profiles("a", {"k": np.array([0.5, 0.25])})  # t=1
        path = store._profile_path("a")
        assert os.path.getmtime(path) == 1.0
        before = open(path, "rb").read()
        loaded = store.read_profiles("a")  # t=2
        assert np.allclose(loaded["k"], [0.5, 0.25])
        assert os.path.getmtime(path) == 2.0
        assert open(path, "rb").read() == before
        # Nothing but the group file (and the shard lock) in its shard.
        assert sorted(os.listdir(os.path.dirname(path))) == [".lock", "a.npz"]

    def test_partial_budget_evicts_oldest_first(self, tmp_path, monkeypatch):
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        vector = np.arange(64, dtype=float)
        for group in ("a", "b", "c", "d"):  # t=1..4
            store.write_profiles(group, {"k": vector})
        sizes = {group: _group_bytes(store, group) for group in "abcd"}
        evicted, freed = store.evict_profiles(sizes["c"] + sizes["d"])
        assert evicted == 2
        assert freed == sizes["a"] + sizes["b"]
        assert store.list_profile_groups() == ["c", "d"]
        assert store.read_profiles("a") == {}
        assert store.read_profiles("d")["k"].tobytes() == vector.tobytes()

    def test_budget_keeps_the_newest_groups(self, tmp_path, monkeypatch):
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        vector = np.arange(64, dtype=float)
        for group in ("a", "b", "c"):
            store.write_profiles(group, {"k": vector})
        budget = 2 * _group_bytes(store, "a")
        store.evict_profiles(budget)
        assert store.list_profile_groups() == ["b", "c"]
        assert store.profile_bytes() <= budget

    def test_zero_budget_evicts_even_the_newest_group(self, tmp_path, monkeypatch):
        self.clock(monkeypatch)
        store = CatalogStore(str(tmp_path / "cat"))
        for group in ("a", "b", "c"):
            store.write_profiles(group, {"k": np.arange(8, dtype=float)})
        sizes = {group: _group_bytes(store, group) for group in "abc"}
        assert store.evict_profiles(0) == (3, sum(sizes.values()))
        assert store.list_profile_groups() == []
        assert store.profile_bytes() == 0

    def test_stats_and_verify_count_groups(self, store):
        store.write_profiles("a", {"k1": np.ones(3), "k2": np.ones(1), "k3": np.ones(2)})
        store.write_profiles("b", {"k1": np.ones(4), "k2": np.ones(4)})
        on_disk = _group_bytes(store, "a") + _group_bytes(store, "b")
        stats = store.stats()
        assert (stats["profile_groups"], stats["profile_entries"]) == (2, 5)
        assert stats["profile_bytes"] == store.profile_bytes() == on_disk
        assert store.verify() == {"objects": 0, "profile_groups": 2, "problems": []}
        assert store.evict_profiles(0) == (2, on_disk)
        stats = store.stats()
        assert (stats["profile_groups"], stats["profile_entries"]) == (0, 0)
        assert stats["profile_bytes"] == 0
        assert store.verify() == {"objects": 0, "profile_groups": 0, "problems": []}

    def test_delete_profiles_drops_one_group(self, store):
        store.write_profiles("a", {"k": np.ones(2)})
        store.write_profiles("b", {"k": np.ones(2)})
        store.delete_profiles("a")
        store.delete_profiles("never-written")
        assert store.list_profile_groups() == ["b"]
        assert store.read_profiles("a") == {}
        assert store.verify()["problems"] == []


class TestBudgetValidation:
    """A negative, NaN or fractional budget used to evict every entry
    (``evict_profiles(-1)`` dropped 3 of 3 groups); it is refused."""

    @pytest.mark.parametrize(
        "value", [-5, 1.5, True, "10"], ids=repr
    )
    def test_bad_eviction_budget_rejected(self, tmp_path, value):
        store = CatalogStore(str(tmp_path / "cat"))
        with pytest.raises(ValueError, match="budget_bytes"):
            store.evict_profiles(value)

    def test_zero_budget_allowed(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        assert store.evict_profiles(0) == (0, 0)

    def test_store_budget_is_not_a_parameter(self, tmp_path):
        with pytest.raises(TypeError, match="profile_budget_bytes"):
            CatalogStore(str(tmp_path / "cat"), profile_budget_bytes=1)

    @pytest.mark.parametrize("budget", [-1, float("nan"), None], ids=repr)
    def test_bad_eviction_budget_evicts_nothing(self, tmp_path, budget):
        store = CatalogStore(str(tmp_path / "cat"))
        for i in range(3):
            store.write_profiles(f"g{i}", {"k": np.array([1.0])})
        with pytest.raises(ValueError, match="budget_bytes"):
            store.evict_profiles(budget)
        assert len(store.list_profile_groups()) == 3


class TestRemovedRunRecordSurface:
    """Release 2.3.0 removed the store's run-record section: the budget
    knob, its methods and its report keys are gone, not ignored."""

    def test_result_budget_is_not_a_parameter(self, tmp_path):
        with pytest.raises(TypeError, match="result_budget_bytes"):
            CatalogStore(str(tmp_path / "cat"), result_budget_bytes=1)

    @pytest.mark.parametrize(
        "name",
        [
            "write_result",
            "read_result",
            "delete_result",
            "list_results",
            "result_bytes",
            "evict_results",
            "result_record_size",
        ],
    )
    def test_run_record_methods_are_gone(self, store, name):
        assert not hasattr(store, name)

    def test_report_keys(self, store):
        store.write_profiles("basefp", {"k": np.array([1.0])})
        assert set(store.stats()) == {
            "version",
            "tables",
            "objects",
            "profile_groups",
            "profile_entries",
            "profile_bytes",
            "leases",
            "disk_bytes",
            "config",
        }
        assert set(store.verify()) == {"objects", "profile_groups", "problems"}


def _group_bytes(store, base_fingerprint):
    return os.path.getsize(store._profile_path(base_fingerprint))


class TestEvictionVanishedFileRace:
    """A file deleted between the directory listing and the mtime stat
    (a concurrent eviction or gc) is skipped, never a crash — the
    satellite regression for the mtime-ordered fallback paths."""

    def _vanish_on_listing(self, store, monkeypatch, doomed_path):
        real_listdir = store.backend.listdir

        def listing(path):
            names = real_listdir(path)
            if os.path.basename(doomed_path) in names and os.path.exists(
                doomed_path
            ):
                os.remove(doomed_path)
            return names

        monkeypatch.setattr(store.backend, "listdir", listing)

    def test_sharded_profile_ghost_skipped(self, store, monkeypatch):
        store.write_profiles("aaaa1111", {"k": np.array([0.5])})
        # A group that vanishes between the listing and its stat.
        ghost_path = store._profile_path("bbbb2222")
        os.makedirs(os.path.dirname(ghost_path), exist_ok=True)
        with open(ghost_path, "wb") as handle:
            handle.write(b"stale npz bytes")
        self._vanish_on_listing(store, monkeypatch, ghost_path)
        evicted, _freed = store.evict_profiles(0)
        assert evicted == 1  # the real group; the ghost neither
        assert store.list_profile_groups() == []  # crashed nor counted
