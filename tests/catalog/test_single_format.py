"""One object, one file: the single-format store contract.

* a root written by another layout version, or whose manifest records
  a config this release cannot build, is refused with a typed error
  naming the rebuild command — never migrated, never a traceback;
* a foreign file beside (or instead of) ``<fp>.bin`` is not an object:
  the table is re-derived from the live corpus like a gc'd one;
* ``has_object`` is one ``exists`` probe and reads nothing else;
* stray files in a shard directory are not objects;
* degenerate lease lifetimes and clock skews are rejected at
  construction;
* a ``results/`` tree of run records left by a release before 2.3.0 is
  inert: nothing reads, verifies or collects it.

Foreign and flat files are planted through ``store.backend.write_bytes``.
"""

import collections
import json
import os

import numpy as np
import pytest

from repro.api import DiscoveryEngine
from repro.catalog import (
    Catalog,
    CatalogStore,
    CatalogStoreError,
    LocalFSBackend,
    shard_of,
)
from repro.cli import main
from repro.data import housing_scenario
from repro.dataframe.table import Table
from tests.harness.entries import make_entry

REBUILD = "repro catalog build"


@pytest.fixture(params=[1, 2, 3], ids=lambda v: f"v{v}")
def old_version(request):
    """Layouts this release refuses: 1 (flat objects), 2 (``repr()``
    table fingerprints, one ``.npz`` member per profile vector), 3
    (object records stamped with fencing tokens in shard manifests)."""
    return request.param


def _portal(n_tables):
    return [
        Table(
            f"t{i:03d}",
            {"k": [f"key{j}" for j in range(6)], "x": [f"{i}:{j}" for j in range(6)]},
        )
        for i in range(n_tables)
    ]


def _build(root, tables):
    catalog = Catalog(CatalogStore(root), num_perm=8, bands=4)
    catalog.refresh(tables)
    catalog.save()
    return catalog


def _plant(store, relpath, data: bytes):
    path = os.path.join(store.root, relpath)
    store.backend.makedirs(os.path.dirname(path))
    store.backend.write_bytes(path, data)
    return path


# ----------------------------------------------------------------------
# (a) an old root fails typed
# ----------------------------------------------------------------------
class TestOldRootIsRefused:
    FLAT_OBJECT = "deadbeefdeadbeef-cafebabecafebabecafebabecafebabe"

    def old_root(self, tmp_path, version):
        root = str(tmp_path / "old")
        store = CatalogStore(root)
        manifest = {
            "version": version,
            "config": {"num_perm": 8, "bands": 4},
            "tables": {"t": "cafebabecafebabecafebabecafebabe"},
        }
        _plant(store, "manifest.json", json.dumps(manifest).encode())
        _plant(
            store,
            os.path.join("objects", self.FLAT_OBJECT + ".json"),
            b'{"columns": {}, "meta": {"name": "t"}}',
        )
        return root

    def test_library_entry_points_raise_the_typed_error(
        self, tmp_path, old_version
    ):
        root = self.old_root(tmp_path, old_version)
        for opener in (
            lambda: Catalog.load(root),
            lambda: DiscoveryEngine.open(root, create=False),
            lambda: DiscoveryEngine.open(root),
            lambda: CatalogStore(root).stats(),
        ):
            with pytest.raises(CatalogStoreError) as caught:
                opener()
            assert f"{REBUILD} {root}" in str(caught.value)
            assert f"version {old_version}" in str(caught.value)

    def test_cli_stats_exits_nonzero_naming_the_command(
        self, tmp_path, old_version, capsys
    ):
        root = self.old_root(tmp_path, old_version)
        assert main(["catalog", "stats", root]) != 0
        captured = capsys.readouterr()
        assert REBUILD in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_cli_build_refuses_rather_than_mixing_formats(
        self, tmp_path, old_version, capsys
    ):
        root = self.old_root(tmp_path, old_version)
        store = CatalogStore(root)
        before = store.backend.read_bytes(store.manifest_path)
        assert main(["catalog", "build", root, "--tables", "4"]) != 0
        assert REBUILD in capsys.readouterr().err
        assert store.backend.read_bytes(store.manifest_path) == before
        assert store.list_objects() == []  # nothing written beside the old files

    @pytest.mark.parametrize(
        "version", [True, 1, 2, 3, 5, "4", 4.0, None], ids=repr
    )
    def test_only_the_integer_four_opens(self, tmp_path, version):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_manifest({}, {})
        manifest = json.loads(store.backend.read_bytes(store.manifest_path))
        assert type(manifest["version"]) is int and manifest["version"] == 4
        assert store.read_manifest() == manifest
        manifest["version"] = version
        _plant(store, "manifest.json", json.dumps(manifest).encode())
        with pytest.raises(CatalogStoreError, match=REBUILD):
            store.read_manifest()


#: Manifest ``config`` values no release of this layout writes: not a
#: dict, an unknown key, a key missing, and the ``hash_version`` key of
#: the seeded tabulation hash family, which is gone.
FOREIGN_CONFIGS = {
    "unknown-key": {"bogus": 1},
    "null": None,
    "list": [1, 2],
    "missing-keys": {"num_perm": 8, "bands": 4},
    "hash-v2": {
        "num_perm": 8,
        "bands": 4,
        "min_containment": 0.3,
        "max_distinct": 5000,
        "seed": 0,
        "hash_version": 2,
    },
}


class TestForeignConfigIsRefused:
    """A layout-4 manifest whose ``config`` is not exactly the index's
    parameters is refused with the typed error naming the rebuild
    command (it once escaped as a raw ``TypeError``)."""

    def foreign_root(self, tmp_path, config):
        root = str(tmp_path / "foreign")
        store = CatalogStore(root)
        store.write_manifest({}, {"t": "cafebabecafebabecafebabecafebabe"})
        manifest = json.loads(store.backend.read_bytes(store.manifest_path))
        manifest["config"] = config
        _plant(store, "manifest.json", json.dumps(manifest).encode())
        return root

    @pytest.mark.parametrize(
        "opener",
        [
            Catalog.load,
            Catalog.open,
            lambda root: DiscoveryEngine.open(root, create=False),
            DiscoveryEngine.open,
        ],
        ids=["Catalog.load", "Catalog.open", "engine-load", "engine-open"],
    )
    @pytest.mark.parametrize(
        "config", FOREIGN_CONFIGS.values(), ids=FOREIGN_CONFIGS.keys()
    )
    def test_library_entry_points_raise_the_typed_error(
        self, tmp_path, config, opener
    ):
        root = self.foreign_root(tmp_path, config)
        with pytest.raises(CatalogStoreError) as caught:
            opener(root)
        assert f"{REBUILD} {root}" in str(caught.value)
        assert repr(config) in str(caught.value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus-stats", "--catalog"],
            ["catalog", "update", "--tables", "4", "--seed", "0", "--style", "open_data"],
        ],
        ids=["corpus-stats", "catalog-update"],
    )
    @pytest.mark.parametrize(
        "config", FOREIGN_CONFIGS.values(), ids=FOREIGN_CONFIGS.keys()
    )
    def test_cli_exits_one_with_an_error_line(self, tmp_path, config, argv, capsys):
        root = self.foreign_root(tmp_path, config)
        argv = argv[:2] + [root] + argv[2:]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert any(
            line.startswith("error:") and REBUILD in line
            for line in captured.err.splitlines()
        )


# ----------------------------------------------------------------------
# (b) foreign files heal
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario():
    return housing_scenario(seed=0)


def _same_candidates(got, want):
    assert [c.aug_id for c in got] == [c.aug_id for c in want]
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.profile_vector, b.profile_vector)


def _warm_prepare(root, scenario):
    engine = DiscoveryEngine.open(root, create=False).attach_corpus(
        scenario.corpus
    )
    try:
        return engine.prepare(scenario.base)
    finally:
        engine.shutdown()


class TestLeftoverRunRecordTree:
    """Release 2.2.0 could persist run records under ``results/``
    (sharded like profile groups, with an LRU shard manifest).  Such a
    root still opens: the tree is inert and ``rm -r DIR/results``
    removes it."""

    def test_results_tree_changes_nothing(self, tmp_path, scenario):
        roots = {}
        for name in ("plain", "legacy"):
            roots[name] = str(tmp_path / name)
            catalog = Catalog(CatalogStore(roots[name]), min_containment=0.3, seed=0)
            catalog.refresh(scenario.corpus)
            catalog.save()
        store = CatalogStore(roots["legacy"])
        key = "c0ffee" * 5 + "00"
        record = json.dumps(
            {"version": 1, "stamp": {"tables": 3}, "record": {"status": "completed"}}
        ).encode("utf-8")
        record_path = _plant(store, f"results/{shard_of(key)}/{key}.json", record)
        _plant(
            store,
            f"results/{shard_of(key)}/manifest.json",
            json.dumps(
                {"results": {key: {"bytes": len(record), "touched": 1.0}}}
            ).encode("utf-8"),
        )
        objects = store.list_objects()

        assert Catalog.load(roots["legacy"]).verify()["problems"] == []
        _same_candidates(
            _warm_prepare(roots["legacy"], scenario),
            _warm_prepare(roots["plain"], scenario),
        )
        assert Catalog.load(roots["legacy"]).gc() == 0
        assert store.list_objects() == objects
        assert store.verify()["problems"] == []
        with open(record_path, "rb") as handle:
            assert handle.read() == record  # never read, never rewritten


class TestForeignFilesAreMissingObjects:
    def damaged(self, tmp_path, scenario):
        """A healthy store where one object exists only as ``.mmap`` and
        another only as ``.json``."""
        root = str(tmp_path / "cat")
        catalog = Catalog(
            CatalogStore(root), min_containment=0.3, seed=0
        )
        catalog.refresh(scenario.corpus)
        catalog.save()
        store = catalog.store
        victims = store.list_objects()[:2]
        for victim, extension in zip(victims, (".mmap", ".json"), strict=True):
            path = store._object_path(victim)
            blob = store.backend.read_bytes(path)
            store.backend.write_bytes(path[: -len(".bin")] + extension, blob)
            store.backend.remove(path)
        return root, victims

    def test_refresh_and_save_rederive_them(self, tmp_path, scenario):
        root, victims = self.damaged(tmp_path, scenario)
        store = CatalogStore(root)
        assert not any(store.has_object(victim) for victim in victims)
        assert not set(victims) & set(store.list_objects())

        cold = DiscoveryEngine(corpus=scenario.corpus).prepare(scenario.base)
        engine = DiscoveryEngine.open(root, create=False).attach_corpus(
            scenario.corpus
        )
        try:
            _same_candidates(engine.prepare(scenario.base), cold)
            engine.catalog.save()
        finally:
            engine.shutdown()

        healed = Catalog.load(root)
        assert all(healed.store.has_object(victim) for victim in victims)
        assert healed.verify()["problems"] == []

    def test_without_live_tables_the_read_fails_typed(
        self, tmp_path, scenario
    ):
        root, victims = self.damaged(tmp_path, scenario)
        orphaned = Catalog.load(root)  # no corpus: nothing to re-derive from
        with pytest.raises(CatalogStoreError, match="missing or corrupt"):
            orphaned.corpus_stats()
        problems = orphaned.verify()["problems"]
        assert all(any(victim in p for p in problems) for victim in victims)


# ----------------------------------------------------------------------
# (c) I/O census
# ----------------------------------------------------------------------
def counting_backend(root):
    """The backend over ``root``, counting ``exists`` probes and
    reads of any (leftover) shard manifest beneath ``objects/``."""

    class Counting(LocalFSBackend):
        calls = collections.Counter()

        def _under_objects(self, path):
            rel = os.path.relpath(path, self.root)
            return rel.split(os.sep, 1)[0] == "objects"

        def exists(self, path):
            if self._under_objects(path):
                self.calls["exists"] += 1
            return super().exists(path)

        def open_read(self, path):
            if self._under_objects(path) and os.path.basename(path) in (
                "manifest.json",
                "manifest.log",
            ):
                self.calls["manifest_read"] += 1
            return super().open_read(path)

    return Counting(root)


class TestObjectProbeCensus:
    N = 24

    def test_cold_build_probes_each_object_once(self, tmp_path):
        spy = counting_backend(str(tmp_path / "cat"))
        catalog = Catalog(CatalogStore(spy.root, backend=spy), num_perm=8, bands=4)
        catalog.refresh(_portal(self.N))
        assert catalog.computed_columns == 2 * self.N
        assert spy.calls["exists"] == self.N  # 4 N with four representations

    def test_has_object_miss_reads_no_shard_manifest(self, tmp_path):
        spy = counting_backend(str(tmp_path / "cat"))
        store = CatalogStore(spy.root, backend=spy)
        store.write_object("aaaa0001", {}, {"c": make_entry({"a"})})
        spy.calls.clear()
        assert store.has_object("aaaa0001")
        assert not store.has_object("bbbb0002")
        assert spy.calls == {"exists": 2}


# ----------------------------------------------------------------------
# Bugfix: stray files in a shard directory are not objects
# ----------------------------------------------------------------------
class TestStrayFilesInShardDirectories:
    STRAYS = ("notes.json", "notes.bin", ".DS_Store", "manifest.json.bak")

    def test_strays_are_neither_listed_verified_nor_collected(
        self, tmp_path
    ):
        tables = _portal(6)
        catalog = _build(str(tmp_path / "cat"), tables)
        store = catalog.store
        objects = store.list_objects()
        # A shard that really holds an object — and is not, by the one
        # chance in 256, the shard "notes" itself hashes to.
        shard = next(
            s for s in map(shard_of, objects) if s != shard_of("notes")
        )
        planted = [
            _plant(store, os.path.join("objects", shard, name), b"scribble")
            for name in self.STRAYS
        ]
        assert store.list_objects() == objects
        assert catalog.verify()["problems"] == []
        assert catalog.gc() == 0
        assert catalog.gc() == 0
        for path in planted:
            assert store.backend.read_bytes(path) == b"scribble"

    def test_object_file_in_the_wrong_shard_is_not_listed(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("aaaa0001", {}, {"c": make_entry({"a"})})
        blob = store.backend.read_bytes(store._object_path("aaaa0001"))
        wrong = next(
            f"{i:02x}" for i in range(256) if f"{i:02x}" != shard_of("bbbb0002")
        )
        _plant(store, os.path.join("objects", wrong, "bbbb0002.bin"), blob)
        assert store.list_objects() == ["aaaa0001"]
        assert store.gc(["aaaa0001"]) == 0


# ----------------------------------------------------------------------
# Bugfix: "leases off" must not sneak back through the number
# ----------------------------------------------------------------------
class TestLifetimesAreValidated:
    @pytest.mark.parametrize(
        "lease_ttl", [None, 0, -5, float("nan"), float("inf"), "soon"], ids=repr
    )
    def test_degenerate_lease_ttl_rejected(self, tmp_path, lease_ttl):
        with pytest.raises(ValueError, match="lease_ttl") as caught:
            CatalogStore(str(tmp_path / "cat"), lease_ttl=lease_ttl)
        if lease_ttl is None:
            assert "leases can no longer be disabled" in str(caught.value)
        else:
            assert repr(lease_ttl) in str(caught.value)

    @pytest.mark.parametrize(
        "value", [-1, float("nan"), float("inf"), None], ids=repr
    )
    def test_degenerate_skew_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match="clock_skew"):
            CatalogStore(str(tmp_path / "cat"), clock_skew=value)

    def test_zero_skew_allowed(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"), clock_skew=0, lease_ttl=0.5)
        assert (store.clock_skew, store.lease_ttl) == (0.0, 0.5)

    def test_unsaved_writes_survive_a_peer_gc(self, tmp_path):
        """The schedule a zero TTL used to lose: three written-but-unsaved
        objects against a peer's ``gc(set())``."""
        root = str(tmp_path / "cat")
        builder = CatalogStore(root)
        for fingerprint in ("aaaa0001", "bbbb0002", "cccc0003"):
            builder.write_object(fingerprint, {}, {"c": make_entry({fingerprint})})
        peer = CatalogStore(root)
        assert peer.gc(set()) == 0
        assert peer.last_gc["skipped_leased"] == 3
