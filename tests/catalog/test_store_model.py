"""The store protocol as a state machine: two builders and a collector.

Hypothesis drives two builder catalogs (separate :class:`Catalog` and
:class:`CatalogStore` instances on one root, as two processes would
hold them) and a collector through adds, updates, removes, refreshes,
saves and gc passes, with a crash at every store write: a builder dying
as an object, the snapshot or the manifest is about to land (a save
dies holding the root lock), and a gc dying after any number of its
removals.  A crashed builder is abandoned and a fresh one opens the
root in its place.  The collector either opens the root afresh for
each pass or keeps a stale catalog across steps.

After every step:

* every object the saved manifest references exists and decodes to its
  table;
* ``verify()`` reports no problems;
* only objects of the table pool are ever listed.

After every clean save, the manifest lists each table live in the
saving builder under its current fingerprint — whatever a gc reclaimed
since the builder wrote or adopted the object.  At teardown, with no
builder pending, one gc leaves exactly the referenced set.

There is no clock in the machine: nothing expires, and a dead builder's
work is garbage as soon as it dies.
"""

import os
import shutil
import tempfile

import pytest

from repro.catalog import Catalog, CatalogStore, table_fingerprint
from repro.dataframe.table import Table
from tests.harness.faults import DyingBackend, InjectedCrash

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

CONFIG = {"num_perm": 8, "bands": 4}

#: Four names, two contents each: adding the other version of a cataloged
#: name is an update.
POOL = [
    Table(f"t{n}", {"c": [f"t{n}-v{version}-{i}" for i in range(3)]})
    for n in range(4)
    for version in range(2)
]

builders = st.sampled_from([0, 1])
tables = st.sampled_from(POOL)
names = st.sampled_from(sorted({table.name for table in POOL}))
#: A corpus: at most one version per name.
corpora = st.lists(tables, max_size=4, unique_by=lambda table: table.name)
#: Where a builder's step dies (``None``: it does not).
add_crashes = st.sampled_from([None, ".bin"])
save_crashes = st.sampled_from([None, ".bin", "snapshot.npz", "manifest.json"])
#: How many files a gc pass removes before it dies (``None``: it does
#: not die).
gc_crashes = st.one_of(st.none(), st.integers(0, 2))


def open_catalog(root, op="write"):
    """A catalog on ``root`` whose backend can be armed to die at one
    ``op`` (see :class:`DyingBackend`); it starts disarmed."""
    backend = DyingBackend(root, None, op=op)
    return Catalog(CatalogStore(root, backend=backend), **CONFIG)


class StoreProtocol(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="store-model-")
        self.root = os.path.join(self.tmp, "cat")
        self.builders = [open_catalog(self.root), open_catalog(self.root)]
        self.collector = open_catalog(self.root, op="remove")
        artifact = self.collector._artifact_config
        self.pool_objects = {
            f"{artifact}-{table_fingerprint(table)}" for table in POOL
        }

    def manifest_tables(self):
        manifest = CatalogStore(self.root).read_manifest()
        return manifest["tables"] if manifest else {}

    def step(self, index, crash, action):
        """Run ``action`` on builder ``index`` with its backend armed to
        die at ``crash``; a builder that died is replaced by a fresh
        one.  True when the step completed."""
        builder = self.builders[index]
        builder.store.backend.suffix = crash
        try:
            action(builder)
        except InjectedCrash:
            self.builders[index] = open_catalog(self.root)
            return False
        builder.store.backend.suffix = None
        return True

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(index=builders, table=tables, crash=add_crashes)
    def add(self, index, table, crash):
        def add_or_update(builder):
            if table.name in builder.fingerprints:
                builder.update(table)
            else:
                builder.add(table)

        self.step(index, crash, add_or_update)

    @rule(index=builders, name=names)
    def remove(self, index, name):
        builder = self.builders[index]
        if name in builder.fingerprints:
            builder.remove(name)

    @rule(index=builders, corpus=corpora, crash=add_crashes)
    def refresh(self, index, corpus, crash):
        self.step(index, crash, lambda builder: builder.refresh(corpus))

    @rule(index=builders, crash=save_crashes)
    def save(self, index, crash):
        live = self.builders[index].fingerprints
        if self.step(index, crash, Catalog.save):
            tables = self.manifest_tables()
            for name, fingerprint in live.items():
                assert tables.get(name) == fingerprint, name

    @rule(index=builders)
    def reopen(self, index):
        self.builders[index] = open_catalog(self.root)

    @rule(fresh=st.booleans(), crash=gc_crashes)
    def gc(self, fresh, crash):
        if fresh:
            self.collector = open_catalog(self.root, op="remove")
        backend = self.collector.store.backend
        if crash is not None:
            backend.suffix, backend.survive = ".bin", crash
        try:
            self.collector.gc()
        except InjectedCrash:
            pass
        backend.suffix = None

    @rule(index=builders)
    def builder_gc(self, index):
        """A builder collects too: its own unsaved work is live to it,
        the other builder's is garbage."""
        self.builders[index].gc()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def referenced_objects_exist_and_decode(self):
        store = CatalogStore(self.root)
        artifact = self.collector._artifact_config
        for name, fingerprint in self.manifest_tables().items():
            meta, entries = store.read_object(f"{artifact}-{fingerprint}")
            assert meta["name"] == name
            assert set(entries) == {"c"}

    @invariant()
    def store_verifies(self):
        if CatalogStore(self.root).exists():
            assert Catalog.load(self.root).verify()["problems"] == []

    @invariant()
    def only_pool_objects_exist(self):
        assert set(CatalogStore(self.root).list_objects()) <= self.pool_objects

    def teardown(self):
        try:
            catalog = Catalog(CatalogStore(self.root), **CONFIG)
            catalog.gc()
            referenced = {
                catalog._object_id(fingerprint)
                for fingerprint in self.manifest_tables().values()
            }
            assert set(catalog.store.list_objects()) == referenced
            assert catalog.store.verify()["problems"] == []
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


StoreProtocol.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStoreProtocol = StoreProtocol.TestCase
