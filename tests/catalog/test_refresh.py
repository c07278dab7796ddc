"""The background refresher: snapshots, change detection, crash safety.

Covers the tentpole contract: immutable published snapshots, unchanged
cycles that leave the store byte-identical (golden), changed cycles that
re-sign exactly the changed tables off the query path, staleness
accounting, the background thread's error resilience, and a refresh
subprocess killed mid-save leaving a store that verifies.
"""

import os
import threading
import time

import pytest

from repro.catalog import (
    Catalog,
    CatalogRefresher,
    CatalogStore,
    table_fingerprint,
)
from repro.dataframe.table import Table
from tests.harness.faults import exit_hook, run_killed


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


class MutableSource:
    """A corpus source the test can swap under the refresher."""

    def __init__(self, corpus):
        self.corpus = dict(corpus)

    def __call__(self):
        return self.corpus

    def replace(self, name, table):
        corpus = dict(self.corpus)
        corpus[name] = table
        self.corpus = corpus

    def drop(self, name):
        corpus = dict(self.corpus)
        del corpus[name]
        self.corpus = corpus


@pytest.fixture
def source():
    return MutableSource(make_corpus())


def store_bytes(root):
    """Byte content of every store file (the golden comparison)."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


class TestCycles:
    def test_first_cycle_publishes_epoch_one(self, source, tmp_path):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        snapshot = refresher.refresh_now()
        assert snapshot.epoch == 1
        assert set(snapshot.corpus) == set(source.corpus)
        assert snapshot.fingerprints["t0"] == table_fingerprint(
            source.corpus["t0"]
        )
        assert refresher.changed_cycles == 1

    def test_unchanged_cycle_republished_same_object(self, source, tmp_path):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        first = refresher.refresh_now()
        second = refresher.refresh_now()
        assert second is first  # the very object, not an equal copy
        assert refresher.cycles == 2
        assert refresher.changed_cycles == 1

    def test_unchanged_cycle_is_byte_identical_golden(self, source, tmp_path):
        """Golden: a refresh cycle over an unchanged corpus must leave
        every store file byte-identical — no manifest rewrite, no
        snapshot repack, no spurious invalidation signal for any cache
        keyed on store content."""
        root = str(tmp_path / "cat")
        refresher = CatalogRefresher(source, store=root)
        refresher.refresh_now()
        before = store_bytes(root)
        refresher.refresh_now()
        assert store_bytes(root) == before

    def test_regenerated_identical_content_is_unchanged(self, source, tmp_path):
        """New Table objects with identical content (a re-read corpus)
        must not bump the epoch: identity misses fall back to the
        fingerprint scan, which sees equal content."""
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        first = refresher.refresh_now()
        source.corpus = dict(make_corpus())  # fresh objects, same content
        second = refresher.refresh_now()
        assert second is first
        assert second.epoch == 1

    def test_changed_table_bumps_epoch_and_resigns_only_it(
        self, source, tmp_path
    ):
        root = str(tmp_path / "cat")
        refresher = CatalogRefresher(source, store=root)
        first = refresher.refresh_now()
        source.replace(
            "t1", Table("t1", {"key": ["a", "b"], "val": ["x", "y"]})
        )
        second = refresher.refresh_now()
        assert second is not first
        assert second.epoch == 2
        assert second.diff.updated == ["t1"]
        assert sorted(second.diff.unchanged) == ["t0", "t2", "t3"]
        # Only the changed table was signed from scratch; the rest
        # hydrated from the previous save.
        assert second.catalog.computed_columns == 2
        # The previous snapshot stays fully intact (immutability).
        assert first.epoch == 1
        assert set(first.corpus) == {"t0", "t1", "t2", "t3"}

    def test_removed_table_is_dropped_and_reclaimed(self, source, tmp_path):
        root = str(tmp_path / "cat")
        refresher = CatalogRefresher(source, store=root)
        refresher.refresh_now()
        dropped_fp = table_fingerprint(source.corpus["t2"])
        source.drop("t2")
        snapshot = refresher.refresh_now()
        assert snapshot.diff.removed == ["t2"]
        assert "t2" not in snapshot.corpus
        store = CatalogStore(root)
        manifest = store.read_manifest()
        assert "t2" not in manifest["tables"]
        # The dropped table's object was reclaimed.
        object_id = f"{snapshot.catalog._artifact_config}-{dropped_fp}"
        assert not store.has_object(object_id)
        assert Catalog.load(root).verify()["problems"] == []

    def test_fingerprints_track_content(self, source, tmp_path):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        first = refresher.refresh_now()
        assert dict(first.fingerprints) == {
            name: table_fingerprint(t) for name, t in source.corpus.items()
        }
        source.replace("t0", Table("t0", {"key": ["z"], "val": ["z"]}))
        second = refresher.refresh_now()
        changed = {
            name
            for name in second.fingerprints
            if second.fingerprints[name] != first.fingerprints[name]
        }
        assert changed == {"t0"}

    def test_storeless_refresher_works(self, source):
        refresher = CatalogRefresher(source)
        snapshot = refresher.refresh_now()
        assert snapshot.epoch == 1
        assert snapshot.catalog.store is None
        source.replace("t0", Table("t0", {"key": ["z"], "val": ["z"]}))
        assert refresher.refresh_now().epoch == 2

    def test_duplicate_names_rejected(self, tmp_path):
        tables = [Table("t", {"c": ["a"]}), Table("t", {"c": ["b"]})]
        refresher = CatalogRefresher(lambda: tables, store=str(tmp_path / "c"))
        with pytest.raises(ValueError, match="duplicate table name"):
            refresher.refresh_now()


class TestStaleness:
    def test_staleness_clock(self, source, tmp_path):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        assert refresher.staleness() == float("inf")
        refresher.refresh_now()
        assert refresher.staleness() < 5.0

    def test_ensure_fresh_serves_current_within_budget(self, source, tmp_path):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        first = refresher.refresh_now()
        cycles = refresher.cycles
        assert refresher.ensure_fresh(budget=60.0) is first
        assert refresher.cycles == cycles  # no extra cycle ran

    def test_ensure_fresh_refreshes_past_budget(self, source, tmp_path):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        refresher.refresh_now()
        time.sleep(0.05)
        snapshot = refresher.ensure_fresh(budget=0.01)
        assert refresher.cycles == 2
        assert refresher.staleness() <= 0.05 + 1.0
        assert snapshot.epoch == 1  # unchanged content, re-verified

    def test_ensure_fresh_without_snapshot_runs_first_cycle(
        self, source, tmp_path
    ):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        snapshot = refresher.ensure_fresh()
        assert snapshot is not None and snapshot.epoch == 1

    def test_interval_validated(self, source):
        with pytest.raises(ValueError, match="interval"):
            CatalogRefresher(source, interval=0)


class TestBackgroundThread:
    def test_thread_publishes_and_tracks_changes(self, source, tmp_path):
        events = []
        refresher = CatalogRefresher(
            source,
            store=str(tmp_path / "cat"),
            interval=0.02,
            on_cycle=lambda snap, changed: events.append((snap.epoch, changed)),
        )
        with refresher:
            deadline = time.monotonic() + 10
            while refresher.current() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert refresher.current() is not None
            source.replace("t0", Table("t0", {"key": ["q"], "val": ["q"]}))
            while (
                refresher.current().epoch < 2 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert refresher.current().epoch == 2
        assert not refresher.running
        assert (1, True) in events and (2, True) in events

    def test_source_error_keeps_last_snapshot(self, source, tmp_path):
        refresher = CatalogRefresher(
            source, store=str(tmp_path / "cat"), interval=0.02
        )
        snapshot = refresher.refresh_now()
        bomb = threading.Event()
        original = source.corpus

        def exploding():
            if bomb.is_set():
                raise RuntimeError("source down")
            return original

        refresher._source = exploding
        bomb.set()
        with pytest.raises(RuntimeError):
            refresher.refresh_now()
        assert refresher.current() is snapshot  # stale-but-available
        refresher.start()
        deadline = time.monotonic() + 10
        while refresher.errors == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        refresher.stop()
        assert refresher.errors >= 1
        assert "source down" in (refresher.stats()["last_error"] or "")
        assert refresher.current() is snapshot

    def test_restart_after_nonblocking_stop_leaves_one_loop(
        self, source, tmp_path
    ):
        """stop(wait=False) + start() must never leave the old loop
        running next to the new one (each start gets its own stop
        event; the orphan keeps observing its already-set one)."""
        refresher = CatalogRefresher(
            source, store=str(tmp_path / "cat"), interval=0.02
        )
        refresher.start()
        deadline = time.monotonic() + 10
        while refresher.current() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        refresher.stop(wait=False)
        refresher.start()
        time.sleep(0.3)  # old loop (if resurrected) would still be alive
        alive = [
            t
            for t in threading.enumerate()
            if t.name == "repro-catalog-refresh"
        ]
        assert len(alive) == 1
        refresher.stop()
        assert not refresher.running

    def test_stats_shape(self, source, tmp_path):
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        refresher.refresh_now()
        stats = refresher.stats()
        assert stats["epoch"] == 1
        assert stats["tables"] == 4
        assert stats["cycles"] == 1
        assert not stats["running"]


def _killed_refresh_worker(root, corpus_spec):
    """A refresh subprocess killed mid-save (between its shard-log
    append and manifest compaction) — the benchmark's crash scenario."""
    corpus = {
        name: Table(name, {"key": values}) for name, values in corpus_spec.items()
    }
    store = CatalogStore(root)
    store.fault_hook = exit_hook("shard-log-appended")
    refresher = CatalogRefresher(lambda: corpus, store=store)
    refresher.refresh_now()


class TestKilledRefreshProcess:
    def test_store_verifies_after_killed_refresh(self, tmp_path):
        root = str(tmp_path / "cat")
        base = {f"t{i}": [f"v{i}", f"w{i}"] for i in range(3)}
        seeded = CatalogRefresher(
            lambda: {n: Table(n, {"key": v}) for n, v in base.items()},
            store=root,
            num_perm=8,
            bands=4,
        )
        seeded.refresh_now()

        changed = dict(base)
        changed["t0"] = ["CHANGED", "w0"]
        run_killed(_killed_refresh_worker, (root, changed))

        # The killed cycle left a verifiable store...
        assert CatalogStore(root).verify()["problems"] == []
        assert Catalog.load(root).verify()["problems"] == []
        # ...and the next refresher finishes the job.
        recovered = CatalogRefresher(
            lambda: {n: Table(n, {"key": v}) for n, v in changed.items()},
            store=root,
        )
        snapshot = recovered.refresh_now()
        assert set(snapshot.corpus) == set(changed)
        assert Catalog.load(root).verify()["problems"] == []
