"""``Catalog.refresh``: the one way to sync a catalog with its corpus.

Freshness is a command (``repro catalog update``, or ``refresh`` +
``save`` from the library) run on the operator's schedule.  The
contract held here:

* only new or changed tables are signed; regenerated objects with
  identical content report ``unchanged`` and sign nothing;
* an unchanged refresh of a loaded catalog writes nothing, and the
  following ``save()`` leaves every store file byte-identical;
* a removed table leaves the manifest and ``gc()`` reclaims its object;
* a save checks only the objects its manifest newly references, and
  re-derives any a ``gc`` reclaimed since the refresh wrote it;
* a refresh process killed at any store write leaves a store that
  verifies, and the next refresh finishes the job.
"""

import hashlib
import os

import pytest

from repro import DiscoveryEngine
from repro.catalog import Catalog, CatalogStore, table_fingerprint
from repro.dataframe.table import Table
from tests.harness.faults import DyingBackend, run_killed
from tests.harness.spy import SpyBackend


def make_corpus(n=4, version=0):
    return {
        f"t{i}": Table(
            f"t{i}",
            {
                "key": [f"k{i}{j}" for j in range(4)],
                "val": [f"v{version}{i}{j}" for j in range(4)],
            },
        )
        for i in range(n)
    }


def store_digests(root):
    """sha256 of every store file, keyed by its path under ``root``."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
    return out


def saved_catalog(root, corpus):
    catalog = Catalog(CatalogStore(root), seed=0)
    catalog.refresh(corpus)
    catalog.save()
    return catalog


class TestDiff:
    def test_first_refresh_adds_every_table(self, tmp_path):
        catalog = Catalog(CatalogStore(str(tmp_path / "cat")), seed=0)
        diff = catalog.refresh(make_corpus())
        assert diff.added == ["t0", "t1", "t2", "t3"]
        assert diff.changed
        assert catalog.computed_columns == 8

    def test_regenerated_identical_content_is_unchanged(self, tmp_path):
        """New Table objects with identical content (a re-read corpus)
        miss the identity fast path and fall back to fingerprints, which
        see equal content: nothing is signed."""
        catalog = Catalog(CatalogStore(str(tmp_path / "cat")), seed=0)
        catalog.refresh(make_corpus())
        signed = catalog.computed_columns
        diff = catalog.refresh(make_corpus())  # fresh objects, same content
        assert diff.unchanged == ["t0", "t1", "t2", "t3"]
        assert not diff.changed
        assert catalog.computed_columns == signed

    def test_regenerated_identical_content_after_load_is_unchanged(
        self, tmp_path
    ):
        root = str(tmp_path / "cat")
        saved_catalog(root, make_corpus())
        loaded = Catalog.load(root)
        diff = loaded.refresh(make_corpus())
        assert diff.unchanged == ["t0", "t1", "t2", "t3"]
        assert loaded.computed_columns == 0

    def test_changed_table_resigns_only_it(self, tmp_path):
        root = str(tmp_path / "cat")
        corpus = make_corpus()
        saved_catalog(root, corpus)
        corpus["t1"] = Table("t1", {"key": ["a", "b"], "val": ["x", "y"]})
        loaded = Catalog.load(root)
        diff = loaded.refresh(corpus)
        assert diff.updated == ["t1"]
        assert diff.unchanged == ["t0", "t2", "t3"]
        assert loaded.computed_columns == 2  # t1's two columns only
        assert not loaded.is_stale(corpus["t1"])

    def test_storeless_catalog_refreshes(self):
        catalog = Catalog()
        corpus = make_corpus()
        assert catalog.refresh(corpus).added == sorted(corpus)
        corpus["t0"] = Table("t0", {"key": ["z"], "val": ["z"]})
        diff = catalog.refresh(corpus)
        assert diff.updated == ["t0"]
        assert catalog.store is None

    def test_daemon_only_parameters_are_gone(self):
        """``refresh(fingerprints=)`` and ``update(fingerprint=)`` let a
        background scan skip a second fingerprint pass; with no daemon
        left, no caller supplies a digest."""
        catalog = Catalog()
        corpus = make_corpus(1)
        with pytest.raises(TypeError):
            catalog.refresh(corpus, fingerprints={})
        catalog.refresh(corpus)
        with pytest.raises(TypeError):
            catalog.update(corpus["t0"], fingerprint="x")


class TestByteIdentity:
    def test_unchanged_refresh_writes_nothing(self, tmp_path):
        """A refresh of a loaded catalog over unchanged content is
        read-only: every store file keeps its sha256."""
        root = str(tmp_path / "cat")
        saved_catalog(root, make_corpus())
        before = store_digests(root)
        Catalog.load(root).refresh(make_corpus())
        assert store_digests(root) == before

    def test_save_after_unchanged_refresh_changes_no_file(self, tmp_path):
        """The save rewrites the manifest and ``snapshot.npz`` with the
        same bytes: every store
        file keeps its sha256, and no file appears or disappears."""
        root = str(tmp_path / "cat")
        saved_catalog(root, make_corpus())
        before = store_digests(root)
        loaded = Catalog.load(root)
        loaded.refresh(make_corpus())
        loaded.save()
        assert store_digests(root) == before
        assert "snapshot.npz" in before and "manifest.json" in before
        assert any(path.endswith(".bin") for path in before)

    def test_unchanged_update_keeps_the_result_cache(self, tmp_path):
        """A warm engine whose catalog is refreshed against unchanged
        content keeps replaying cached runs: nothing moved, so nothing
        is invalidated."""
        from repro.api import DiscoveryRequest
        from repro.core.config import MetamConfig
        from repro.data import clustering_scenario

        scenario = clustering_scenario(seed=0)
        catalog = Catalog(CatalogStore(str(tmp_path / "cat")), seed=0)
        engine = DiscoveryEngine(
            corpus=scenario.corpus, catalog=catalog, result_cache_bytes=8 << 20
        )
        engine.tasks.register("t", lambda **_o: scenario.task)
        request = DiscoveryRequest(
            base=scenario.base,
            task="t",
            searcher="metam",
            config=MetamConfig(theta=0.6, query_budget=10, seed=0),
        )
        engine.discover(request)
        assert not catalog.refresh(dict(scenario.corpus)).changed
        assert engine.discover(request).cached


class TestSaveChecksWhatItReferences:
    @staticmethod
    def save_probes(root, saved, refreshed):
        """Existence probes under ``objects/`` made by the ``save()``
        that follows a refresh from ``saved`` to ``refreshed`` tables."""
        saved_catalog(root, make_corpus(saved))
        spy = SpyBackend(root)
        catalog = Catalog.load(CatalogStore(root, backend=spy))
        catalog.refresh(make_corpus(refreshed))
        spy.reads.clear()
        catalog.save()
        assert Catalog.load(root).verify()["problems"] == []
        return spy.reads[("exists", "objects")]

    def test_save_probes_only_newly_referenced_objects(self, tmp_path):
        """Tables the on-disk manifest already lists are protected by
        it; the save checks only the rest, one probe each."""
        assert self.save_probes(str(tmp_path / "a"), 20, 20) == 0
        assert self.save_probes(str(tmp_path / "b"), 20, 25) == 5
        assert self.save_probes(str(tmp_path / "c"), 80, 85) == 5

    def test_objects_reclaimed_before_save_are_rederived(self, tmp_path):
        """Between refresh and save the manifest references nothing new,
        so a peer's gc reclaims the fresh objects; the save signs them
        again before the manifest names them."""
        root = str(tmp_path / "cat")
        saved_catalog(root, make_corpus(2))
        builder = Catalog.load(root)
        builder.refresh(make_corpus(5))
        assert builder.computed_columns == 6
        assert Catalog.load(root).gc() == 3
        builder.save()
        assert builder.computed_columns == 12
        assert sorted(CatalogStore(root).read_manifest()["tables"]) == sorted(
            make_corpus(5)
        )
        assert Catalog.load(root).verify()["problems"] == []


class TestRemoval:
    def test_removed_table_is_dropped_and_reclaimed(self, tmp_path):
        root = str(tmp_path / "cat")
        corpus = make_corpus()
        saved_catalog(root, corpus)
        dropped_fp = table_fingerprint(corpus.pop("t2"))
        loaded = Catalog.load(root)
        diff = loaded.refresh(corpus)
        assert diff.removed == ["t2"]
        loaded.save()
        store = CatalogStore(root)
        assert "t2" not in store.read_manifest()["tables"]
        object_id = f"{loaded._artifact_config}-{dropped_fp}"
        assert store.has_object(object_id)  # still on disk until gc
        assert loaded.gc() >= 1
        assert not store.has_object(object_id)
        assert Catalog.load(root).verify()["problems"] == []


def _killed_refresh_worker(root, corpus_spec, point):
    """``Catalog.load(root).refresh(changed); save()`` killed as it is
    about to write a file ending with ``point`` — a real process death,
    no cleanup."""
    corpus = {
        name: Table(name, {"key": values}) for name, values in corpus_spec.items()
    }
    backend = DyingBackend(root, point, exit=True)
    catalog = Catalog.load(CatalogStore(root, backend=backend))
    catalog.refresh(corpus)
    catalog.save()


class TestKilledRefreshProcess:
    @pytest.mark.parametrize(
        "point", [".bin", "snapshot.npz", "manifest.json"]
    )
    def test_store_verifies_after_killed_refresh(self, tmp_path, point):
        root = str(tmp_path / "cat")
        base = {f"t{i}": [f"v{i}", f"w{i}"] for i in range(3)}
        seeded = Catalog(CatalogStore(root), num_perm=8, bands=4)
        seeded.refresh({n: Table(n, {"key": v}) for n, v in base.items()})
        seeded.save()

        changed = dict(base)
        changed["t0"] = ["CHANGED", "w0"]
        run_killed(_killed_refresh_worker, (root, changed, point))

        # The killed refresh left a verifiable store...
        assert CatalogStore(root).verify()["problems"] == []
        assert Catalog.load(root).verify()["problems"] == []
        # ...and the next refresh finishes the job.
        recovered = Catalog.load(root)
        corpus = {n: Table(n, {"key": v}) for n, v in changed.items()}
        diff = recovered.refresh(corpus)
        assert set(diff.unchanged) | set(diff.updated) == set(changed)
        recovered.save()
        final = Catalog.load(root)
        assert final.verify()["problems"] == []
        assert final.refresh(corpus).unchanged == sorted(changed)
