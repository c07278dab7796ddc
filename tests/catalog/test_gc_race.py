"""The gc liveness race, pinned end to end.

The race: gc computes its live set (from the saved manifest), a
concurrent builder then writes a new object, and gc reclaims it before
the builder's ``save()`` publishes the reference.  The fix is twofold —
writers stamp fencing-token leases on in-flight objects (gc skips any
candidate under another holder's active lease), and gc re-checks
liveness under the shard lock right before deleting (so a save that
landed after the scan re-animates its objects).

The same race exists for objects a builder *adopts* (a warm-start hit
on content already on disk): nothing is written at adoption, so the
builder's ``save()`` claims every adopted object on its lease in one
write and then verifies each under its shard lock — ``TestAdoptionRace``
pins both orders of that claim against a peer's gc, and a builder
killed between the two.

Every test here drives the exact interleaving deterministically: the
"builder" is a second store/catalog instance (its writer lease is not
the gc'ing store's own), and the stale live set is captured explicitly
before the racing write.
"""

import os
import time

from repro.catalog import Catalog, CatalogStore
from repro.catalog import store as store_module
from repro.catalog.leases import DEFAULT_LEASE_TTL
from repro.dataframe.table import Table
from tests.harness.entries import make_entry
from tests.harness.faults import (
    KILLED_EXIT_CODE,
    exit_hook,
    fork_context,
    run_killed,
)


def write(store, fingerprint):
    store.write_object(
        fingerprint, {"name": fingerprint}, {"c": make_entry({fingerprint})}
    )


class TestLeasePreservesInFlightWrites:
    def test_object_written_after_scan_survives_gc(self, tmp_path):
        """The canonical schedule: gc scans, builder writes, gc sweeps —
        the unreferenced-but-leased object must survive."""
        root = str(tmp_path / "cat")
        gc_store = CatalogStore(root)
        write(gc_store, "aaaa0001")
        stale_live = set(gc_store.list_objects())  # gc's live-set scan

        builder = CatalogStore(root)  # a second process, as far as
        write(builder, "bbbb0002")    # leases are concerned

        removed = gc_store.gc(stale_live)
        assert removed == 0
        assert gc_store.last_gc["skipped_leased"] == 1
        assert builder.has_object("bbbb0002")
        assert gc_store.verify()["problems"] == []
        # The builder "saves" (releases ownership); only now is the
        # object fair game for a gc that does not list it live.
        builder.release_writer_lease()
        assert gc_store.gc(stale_live) == 1
        assert not gc_store.has_object("bbbb0002")

    def test_own_writer_lease_does_not_shield_own_garbage(self, tmp_path):
        """A store gc'ing with its own lease outstanding still reclaims
        its *own* unreferenced objects — the caller's live set is
        authoritative for its own work; leases protect other writers."""
        store = CatalogStore(str(tmp_path / "cat"))
        write(store, "aaaa0001")
        write(store, "bbbb0002")
        assert store.gc(["aaaa0001"]) == 1
        assert not store.has_object("bbbb0002")


class TestLiveCheckUnderLock:
    def test_save_landing_after_scan_reanimates(self, tmp_path):
        """Even without the lease (the builder released it the instant
        its save landed), the under-lock liveness re-check sees the new
        manifest reference and spares the object."""
        root = str(tmp_path / "cat")
        gc_store = CatalogStore(root)
        write(gc_store, "aaaa0001")
        stale_live = set(gc_store.list_objects())

        builder = CatalogStore(root)
        write(builder, "bbbb0002")
        builder.release_writer_lease()  # save() landed, lease returned

        manifest_live = {"aaaa0001", "bbbb0002"}  # what the manifest
        removed = gc_store.gc(stale_live, live_check=lambda: manifest_live)
        assert removed == 0
        assert gc_store.last_gc["skipped_live"] == 1
        assert gc_store.has_object("bbbb0002")

    def test_catalog_gc_rechecks_manifest(self, tmp_path):
        """Catalog.gc wires the re-check to a fresh manifest read: a
        peer's save between the scan and the sweep is honored."""
        root = str(tmp_path / "cat")
        corpus = [Table(f"t{i}", {"c": [f"v{i}"]}) for i in range(3)]
        catalog = Catalog.open(root, num_perm=8, bands=4)
        catalog.refresh(corpus)
        catalog.save()

        # A peer catalog saves one more table after this catalog's state
        # was settled; gc must re-read and spare it.
        peer = Catalog.load(root, corpus=corpus + [Table("t9", {"c": ["z"]})])
        peer.save()
        assert catalog.gc() == 0
        assert peer.verify()["problems"] == []


def _doomed_builder(root, fingerprint):
    store = CatalogStore(root)
    store.write_object(
        fingerprint, {"name": fingerprint}, {"c": make_entry({fingerprint})}
    )
    os._exit(KILLED_EXIT_CODE)  # dies holding the lease, before save()


class TestCrashedBuilder:
    def test_dead_writers_lease_expires_then_reclaims(self, tmp_path, monkeypatch):
        """A builder killed between write and save leaks exactly one
        lease window: gc spares the orphan while the lease is live and
        reclaims it once the TTL (+ skew) elapses."""
        root = str(tmp_path / "cat")
        store = CatalogStore(root)
        write(store, "aaaa0001")
        store.release_writer_lease()

        worker = fork_context().Process(
            target=_doomed_builder, args=(root, "bbbb0002")
        )
        worker.start()
        worker.join()
        assert worker.exitcode == KILLED_EXIT_CODE

        # While the dead writer's lease is still within TTL: protected.
        assert store.gc(["aaaa0001"]) == 0
        assert store.last_gc["skipped_leased"] == 1
        assert store.has_object("bbbb0002")

        # Past the TTL the orphan is garbage again — the leak is
        # bounded by one lease window, not forever.
        real_now = time.time
        monkeypatch.setattr(
            store_module, "_now", lambda: real_now() + DEFAULT_LEASE_TTL + 1
        )
        assert store.gc(["aaaa0001"]) == 1
        assert not store.has_object("bbbb0002")
        assert store.verify()["problems"] == []


def _tables(*names):
    return [Table(name, {"c": [f"{name}{i}" for i in range(4)]}) for name in names]


def _manifest_tables(root):
    return sorted(CatalogStore(root).read_manifest()["tables"])


def _peer_drops_b(root):
    """The peer: keeps only ``a``, saves, gc's.  Returns its store (for
    ``last_gc``)."""
    peer = Catalog.load(root, corpus=_tables("a"))
    peer.save()
    peer.gc()
    return peer.store


def _killed_saver(root):
    builder = Catalog.load(root, corpus=_tables("a", "b", "c"))
    builder.store.fault_hook = exit_hook("claims-published")
    builder.save()


class TestAdoptionRace:
    """Builder adopts ``a`` and ``b`` (already on disk) and writes ``c``;
    a peer drops ``b`` from the manifest and gc's.  Whichever side of the
    builder's claim the gc lands on, the builder's save must leave a
    manifest whose every table has its object."""

    def seed(self, root):
        catalog = Catalog(CatalogStore(root), num_perm=8, bands=4)
        catalog.refresh(_tables("a", "b"))
        catalog.save()
        return catalog.fingerprints

    def test_gc_before_claim_rederives(self, tmp_path):
        root = str(tmp_path / "cat")
        fingerprints = self.seed(root)
        builder = Catalog.load(root, corpus=_tables("a", "b", "c"))
        assert builder.computed_columns == 1  # c signed; a, b adopted
        b_object = builder._object_id(fingerprints["b"])

        peer_store = _peer_drops_b(root)
        # b went (adoption wrote nothing to protect it); c — written by
        # the builder, stamped with its lease — was spared.
        assert peer_store.last_gc == {
            "removed": 1, "skipped_leased": 1, "skipped_live": 0,
        }
        assert not builder.store.has_object(b_object)

        builder.save()
        assert builder.computed_columns == 2  # b re-derived at save
        assert builder.store.has_object(b_object)
        assert _manifest_tables(root) == ["a", "b", "c"]
        assert Catalog.load(root).verify()["problems"] == []
        assert builder.store.leases.active() == []

    def test_gc_after_claim_is_held_off(self, tmp_path):
        root = str(tmp_path / "cat")
        fingerprints = self.seed(root)
        builder = Catalog.load(root, corpus=_tables("a", "b", "c"))
        b_object = builder._object_id(fingerprints["b"])
        peer_gc = []

        def peer_at_publication(point):
            if point == "claims-published":
                peer_gc.append(_peer_drops_b(root).last_gc)

        builder.store.fault_hook = peer_at_publication
        builder.save()
        # Both of the builder's unreferenced objects were spared: c by
        # its write-time stamp, b by the claim.
        assert peer_gc == [
            {"removed": 0, "skipped_leased": 2, "skipped_live": 0}
        ]
        assert builder.computed_columns == 1  # nothing re-derived
        assert builder.store.has_object(b_object)
        assert _manifest_tables(root) == ["a", "b", "c"]
        assert Catalog.load(root).verify()["problems"] == []

    def test_builder_killed_after_claim_leaks_one_ttl(self, tmp_path, monkeypatch):
        root = str(tmp_path / "cat")
        self.seed(root)
        run_killed(_killed_saver, (root,))

        # The dead builder's lease still claims a and b and stamps c:
        # within the TTL the peer's gc reclaims nothing.
        peer_store = _peer_drops_b(root)
        assert peer_store.last_gc == {
            "removed": 0, "skipped_leased": 2, "skipped_live": 0,
        }
        real_now = time.time
        monkeypatch.setattr(
            store_module, "_now", lambda: real_now() + DEFAULT_LEASE_TTL + 1
        )
        peer = Catalog.load(root)
        assert peer.gc() == 2  # b and c: the claim died with the lease
        assert _manifest_tables(root) == ["a"]
        assert peer.verify()["problems"] == []
        assert peer.store.leases.active() == []
