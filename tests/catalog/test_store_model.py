"""The store protocol as a state machine: two builders and one collector.

Hypothesis drives two builder :class:`CatalogStore` instances (separate
lease owners on one root) and one gc instance through object writes,
adoptions (``claim_objects``, then a rewrite of whatever comes back
missing), saves, drops, gc passes, lease expiry, and a crash at every
``fault_hook`` point.  A crashed instance is abandoned — its lease left
to expire — and a fresh one takes its place.  An in-memory model tracks
what the root manifest references and what each live builder holds;
after every step the real store must agree with it:

* every object the saved manifest references exists and decodes to its
  content;
* every object a live, unexpired builder wrote or claimed still exists
  — gc never removes an object a live builder will reference;
* ``verify()`` reports no problems;
* only objects that were ever written are listed, and once every lease
  has expired one gc leaves exactly the referenced set.

The machine uses only the store's public protocol, so it holds whatever
bookkeeping the store keeps for deletions.
"""

import os
import shutil
import tempfile
import time

import pytest

from repro.catalog import CatalogStore
from repro.catalog import store as store_module
from repro.catalog.fingerprint import shard_of
from tests.harness.entries import make_entry, same_shard_fingerprints
from tests.harness.faults import InjectedCrash, crash_at

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

#: Three fingerprints share a shard (one lock, one log, one manifest);
#: the fourth lives elsewhere.
_SHARED = same_shard_fingerprints(3)
FINGERPRINTS = _SHARED + same_shard_fingerprints(
    1, shard="00" if shard_of(_SHARED[0]) != "00" else "01"
)

builders = st.sampled_from([0, 1])
fingerprints = st.sampled_from(FINGERPRINTS)
#: Where a builder step can die (``None``: it does not), and where a gc
#: pass can — each actor only reaches its own protocol points.
builder_crashes = st.one_of(
    st.none(),
    st.sampled_from(
        ["shard-log-appended", "shard-manifest-compacted", "claims-published"]
    ),
)
gc_crashes = st.sampled_from(
    [None, "shard-log-appended", "object-files-removed", "shard-manifest-compacted"]
)


def write(store, fingerprint):
    store.write_object(
        fingerprint, {"name": fingerprint}, {"c": make_entry({fingerprint})}
    )


class Builder:
    """A builder's store handle and what the model says it holds."""

    def __init__(self, root):
        self.store = CatalogStore(root)
        #: Written or claimed since the last save, under a live lease.
        self.held = set()
        #: To be un-referenced by the next save.
        self.dropped = set()


class StoreProtocol(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="store-model-")
        self.root = os.path.join(self.tmp, "cat")
        self.real_now = store_module._now
        start = time.time()
        self.elapsed = 0.0
        store_module._now = lambda: start + self.elapsed
        self.builders = [Builder(self.root), Builder(self.root)]
        self.collector = CatalogStore(self.root)
        #: The model of the saved root manifest.
        self.referenced = set()
        #: Every fingerprint ever handed to ``write_object``.
        self.written = set()
        #: The manifest as the previous gc pass read it: a stale pass
        #: starts from this scan-time snapshot.
        self.scanned = set()

    def manifest_tables(self):
        manifest = self.collector.read_manifest()
        return set(manifest["tables"]) if manifest else set()

    @staticmethod
    def survives(store, point, step):
        """Run ``step``, under a crash at ``point`` when one is given.
        False when the crash hit: the caller abandons ``store``."""
        if point is None:
            step()
            return True
        with crash_at(store, point):
            try:
                step()
            except InjectedCrash:
                return False
        return True

    def builder_step(self, index, fingerprint, crash, step):
        builder = self.builders[index]
        self.written.add(fingerprint)
        if self.survives(builder.store, crash, step):
            builder.held.add(fingerprint)
            builder.dropped.discard(fingerprint)
        else:
            self.builders[index] = Builder(self.root)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(index=builders, fingerprint=fingerprints, crash=builder_crashes)
    def write_object(self, index, fingerprint, crash):
        store = self.builders[index].store
        self.builder_step(index, fingerprint, crash, lambda: write(store, fingerprint))

    @rule(index=builders, fingerprint=fingerprints, crash=builder_crashes)
    def adopt(self, index, fingerprint, crash):
        store = self.builders[index].store

        def claim_then_rewrite():
            for missing in store.claim_objects([fingerprint]):
                write(store, missing)

        self.builder_step(index, fingerprint, crash, claim_then_rewrite)

    @rule(index=builders, fingerprint=fingerprints)
    def drop(self, index, fingerprint):
        builder = self.builders[index]
        builder.held.discard(fingerprint)
        builder.dropped.add(fingerprint)

    @rule(index=builders)
    def save(self, index):
        builder = self.builders[index]
        store = builder.store
        with store.root_lock():
            manifest = store.read_manifest()
            tables = set(manifest["tables"]) if manifest else set()
            tables = (tables - builder.dropped) | builder.held
            store.write_manifest({}, {fp: fp for fp in tables})
        store.release_writer_lease()
        self.referenced = tables
        builder.held = set()
        builder.dropped = set()

    @rule(stale=st.booleans(), crash=gc_crashes)
    def gc(self, stale, crash):
        current = self.manifest_tables()
        live, self.scanned = (self.scanned if stale else current), current
        collector = self.collector
        if not self.survives(
            collector,
            crash,
            lambda: collector.gc(live, live_check=self.manifest_tables),
        ):
            self.collector = CatalogStore(self.root)

    @rule()
    def expire_leases(self):
        self.elapsed += self.collector.lease_ttl + 1
        for builder in self.builders:
            builder.held = set()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def referenced_objects_exist_and_decode(self):
        assert self.manifest_tables() == self.referenced
        for fingerprint in self.referenced:
            meta, entries = self.collector.read_object(fingerprint)
            assert meta == {"name": fingerprint}
            assert entries["c"].distinct == {fingerprint}

    @invariant()
    def live_builders_keep_their_objects(self):
        for builder in self.builders:
            for fingerprint in builder.held:
                assert builder.store.has_object(fingerprint), fingerprint

    @invariant()
    def store_verifies(self):
        assert self.collector.verify()["problems"] == []

    @invariant()
    def only_written_objects_exist(self):
        assert set(self.collector.list_objects()) <= self.written

    def teardown(self):
        try:
            self.expire_leases()
            store = CatalogStore(self.root)
            store.gc(self.manifest_tables(), live_check=self.manifest_tables)
            assert set(store.list_objects()) == self.referenced
            assert store.verify()["problems"] == []
        finally:
            store_module._now = self.real_now
            shutil.rmtree(self.tmp, ignore_errors=True)


StoreProtocol.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStoreProtocol = StoreProtocol.TestCase
