"""The :class:`Catalog` facade: a persistent, incrementally-updatable
discovery index plus a profile-vector cache.

A catalog owns a :class:`~repro.discovery.index.DiscoveryIndex` and keeps
it in sync with a corpus through ``add``/``remove``/``update``/``refresh``
— each maintaining the LSH index incrementally, never rebuilding entries
of unchanged tables.  With a :class:`~repro.catalog.store.CatalogStore`
attached, every computed artifact (MinHash signatures, distinct sets,
profile vectors) is persisted content-addressed by table fingerprint, so
a later process warm-starts discovery by loading artifacts instead of
recomputing them.  Staleness is detected by fingerprint: a table whose
content changed gets a new fingerprint, misses the object store, and is
re-signed (and its cached profiles are invalidated, because profile keys
embed the fingerprints of every table on the candidate's join path).
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass, field

from repro.catalog.fingerprint import (
    config_fingerprint,
    profile_key,
    registry_fingerprint,
    table_fingerprint,
)
from repro.catalog.store import CatalogStore, CatalogStoreError
from repro.dataframe.table import Table
from repro.discovery.index import ColumnRef, DiscoveryIndex

#: The keys of a stored config: the index's construction parameters,
#: which ``DiscoveryIndex.config`` reports one for one.
_CONFIG_KEYS = frozenset(inspect.signature(DiscoveryIndex).parameters)


@dataclass
class CatalogDiff:
    """Outcome of one :meth:`Catalog.refresh` pass."""

    added: list = field(default_factory=list)
    updated: list = field(default_factory=list)
    removed: list = field(default_factory=list)
    unchanged: list = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.added or self.updated or self.removed)

    def summary(self) -> str:
        return (
            f"+{len(self.added)} added, ~{len(self.updated)} updated, "
            f"-{len(self.removed)} removed, ={len(self.unchanged)} unchanged"
        )


def _weak_entry_loader(catalog: "Catalog"):
    """The index's lazy entry source, holding ``catalog`` weakly: the
    catalog owns its index, so a strong reference back would make the
    pair (and every corpus ``Table`` the index holds) a cycle that only
    the cyclic collector can free."""
    ref = weakref.ref(catalog)

    def load(table_name: str, columns: tuple) -> dict:
        owner = ref()
        if owner is None:
            raise CatalogStoreError(
                f"cannot page entries of table {table_name!r}: the catalog "
                "that owned this index is gone (keep the Catalog alive "
                "while its index is in use)"
            )
        return owner._load_entries(table_name, columns)

    return load


class Catalog:
    """Persistent discovery catalog over a table corpus.

    Parameters mirror :class:`DiscoveryIndex` (with ``min_containment``
    defaulting to :class:`~repro.api.CandidateSpec`'s cold-path value,
    so a default-constructed catalog reproduces the engine's default
    candidate sets); ``store`` (optional) attaches on-disk persistence.
    When the store already holds a saved catalog, the construction
    parameters must match its recorded config — persisted signatures are
    only valid for the config that produced them.
    Use :meth:`load` to adopt a saved catalog's config wholesale.
    """

    def __init__(
        self,
        store: CatalogStore = None,
        num_perm: int = 64,
        bands: int = 16,
        min_containment: float = 0.3,
        max_distinct: int = 5000,
        seed: int = 0,
    ):
        self._index = DiscoveryIndex(
            num_perm=num_perm,
            bands=bands,
            min_containment=min_containment,
            max_distinct=max_distinct,
            seed=seed,
        )
        self.store = store
        # Objects on disk are addressed by (artifact config, table content)
        # so artifacts computed under a different num_perm/seed/max_distinct
        # can never be reused by mistake — even when a crash left objects
        # behind without a manifest to guard them.  bands/min_containment
        # only affect querying, not the stored artifacts.
        self._artifact_config = config_fingerprint(
            {"num_perm": num_perm, "seed": seed, "max_distinct": max_distinct}
        )
        self._fingerprints = {}
        # Snapshot recorded by the last save(); lets refresh() distinguish
        # "new table" from "known table being re-hydrated in this process".
        self._persisted = {}
        # Signature matrix from the last save (read lazily): hydrates the
        # LSH index without opening per-table objects.
        self._snapshot = None
        self._snapshot_read = False
        # Names removed since the last save — lets callers with implicit
        # persistence (the pipeline's auto-save) tell additive state from
        # state that would shrink the saved catalog.
        self._removed_since_save = set()
        # Fingerprints of removed tables (until the next save): a table
        # re-added with identical content can still hydrate from the
        # snapshot instead of re-reading its per-column object.
        self._removed_fingerprints = {}
        # Instrumentation: columns signed from scratch vs hydrated from disk.
        self.computed_columns = 0
        self.loaded_columns = 0
        #: Monotone count of structural mutations (every add/remove).
        #: Cheap change detection for caches layered above the catalog:
        #: equal counts on one instance imply an unchanged table set.
        self.mutations = 0
        if store is not None:
            self._index.set_entry_loader(_weak_entry_loader(self))
            manifest = store.read_manifest()
            if manifest is not None:
                if manifest["config"] != self.config:
                    raise CatalogStoreError(
                        f"catalog at {store.root!r} was built with config "
                        f"{manifest['config']!r}, which differs from "
                        f"{self.config!r}; use Catalog.load() to adopt the "
                        "stored config"
                    )
                self._persisted = dict(manifest["tables"])

    # ------------------------------------------------------------------
    @property
    def index(self) -> DiscoveryIndex:
        """The live discovery index (hydrated, ready for ``joinable``)."""
        return self._index

    @property
    def config(self) -> dict:
        return self._index.config

    @property
    def fingerprints(self) -> dict:
        """Current name → fingerprint map."""
        return dict(self._fingerprints)

    @property
    def removed_since_save(self) -> frozenset:
        """Table names removed since the last save — a save now would
        shrink the persisted catalog by exactly these."""
        return frozenset(self._removed_since_save)

    def __len__(self) -> int:
        return len(self._fingerprints)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _object_id(self, fingerprint: str) -> str:
        """On-disk object address: artifact config + table content."""
        return f"{self._artifact_config}-{fingerprint}"

    def add(self, table: Table, fingerprint: str = None) -> str:
        """Catalog a new table; returns its fingerprint.

        If the attached store already holds artifacts for this exact
        content (same fingerprint, same artifact config), they are loaded
        instead of recomputed; otherwise the columns are signed here and
        persisted.  ``fingerprint`` may be supplied by callers that
        already computed it (fingerprinting is the expensive step on
        large tables).

        Adopting an object from disk writes nothing, so hydrating an
        unchanged corpus is read-only; :meth:`save` checks that the
        object still exists before the manifest references it.
        """
        if fingerprint is None:
            fingerprint = table_fingerprint(table)
        return self._add(table, fingerprint)

    def _add(self, table: Table, fingerprint: str, present: bool = None) -> str:
        """:meth:`add` for a fingerprinted table; ``present`` is whether
        its object is on disk, when the caller already probed."""
        object_id = self._object_id(fingerprint)
        if self.store is not None and present is None:
            present = self.store.has_object(object_id)
        # Fastest path: the last save()'s snapshot covers this exact
        # content (directly, or via a remove+re-add cycle of identical
        # content) — hydrate the LSH index from packed signatures and
        # defer value-set loading until a query actually collides with it.
        known = self._persisted.get(table.name) or self._removed_fingerprints.get(
            table.name
        )
        if self.store is not None and known == fingerprint:
            signatures = self._snapshot_signatures(table.name, fingerprint)
            if (
                signatures is not None
                and set(table.column_names) <= set(signatures)
                # The lazy entry loader will need the object later; if it
                # vanished (external deletion, stale snapshot), fall through
                # to the eager path, which recomputes and re-persists.
                and present
            ):
                self._index.add_table_hydrated(table, signatures)
                self._fingerprints[table.name] = fingerprint
                self._removed_since_save.discard(table.name)
                self._removed_fingerprints.pop(table.name, None)
                self.loaded_columns += len(table.column_names)
                self.mutations += 1
                return fingerprint
        entries = None
        if present:
            try:
                _meta, entries = self.store.read_object(object_id)
                self.loaded_columns += len(entries)
            except (KeyError, CatalogStoreError):
                # Corrupt (or gc'd since the probe): recompute from the
                # live table below and overwrite the damaged file.
                entries = None
        if entries is None:
            entries = self._compute_and_persist(table, object_id)
        self._index.add_table(table, entries=entries)
        self._fingerprints[table.name] = fingerprint
        self._removed_since_save.discard(table.name)
        self._removed_fingerprints.pop(table.name, None)
        self.mutations += 1
        return fingerprint

    def _compute_and_persist(self, table: Table, object_id: str) -> dict:
        """Sign every column of ``table`` and (with a store) persist the
        object under ``object_id``."""
        entries = self._index.compute_column_entries(table)
        self.computed_columns += len(entries)
        if self.store is not None:
            meta = {
                "name": table.name,
                "source": table.source,
                "num_rows": table.num_rows,
                "column_names": table.column_names,
                # Recorded so Table-I corpus reports can run from disk
                # artifacts alone (see corpus_stats) without the corpus.
                "size_bytes": table.estimated_byte_size(),
            }
            # Freshly derived content may be healing a corrupt file with
            # the same address, so force the write.
            self.store.write_object(object_id, meta, entries, overwrite=True)
        return entries

    def _snapshot_signatures(self, table_name: str, fingerprint: str):
        """Signatures for one table from the saved snapshot — only if the
        snapshot row was written for exactly this content (a crash between
        the manifest and snapshot writes can leave the two out of sync)."""
        if not self._snapshot_read:
            self._snapshot = self.store.read_snapshot() or {}
            self._snapshot_read = True
        recorded = self._snapshot.get(table_name)
        if recorded is None or recorded[0] != fingerprint:
            return None
        return recorded[1]

    def _load_entries(self, table_name: str, columns: tuple) -> dict:
        """Entry loader for lazily-hydrated tables (installed on the
        index): reads just ``columns`` of the table's persisted object.

        If the object vanished between hydration and first touch (a
        concurrent ``gc`` from another process), is corrupt, or lacks a
        requested column, the whole table is re-derived from the live
        Table — the fingerprint is unchanged, so recomputation
        reproduces the exact artifacts — and re-persisted.
        """
        fingerprint = self._fingerprints.get(table_name)
        if fingerprint is None:
            raise KeyError(f"table {table_name!r} not cataloged")
        object_id = self._object_id(fingerprint)
        try:
            _meta, entries = self.store.read_object(object_id, columns)
            return entries
        except (KeyError, CatalogStoreError):
            table = self._index.get_table(table_name)
            if table is None:
                raise
            return self._compute_and_persist(table, object_id)

    def remove(self, table_name: str) -> None:
        """Drop a table from the catalog (incremental LSH removal).

        The persisted object stays on disk until :meth:`gc` — removal
        must stay cheap, and the content may come back.
        """
        removed_fingerprint = self._fingerprints[table_name]
        self._index.remove_table(table_name)
        del self._fingerprints[table_name]
        # Forget the saved snapshot's claim on this name too, so a later
        # refresh() doesn't report the removal a second time (or call a
        # re-added table "unchanged") — but remember the fingerprint so an
        # identical re-add can still use the snapshot fast path.
        self._persisted.pop(table_name, None)
        self._removed_since_save.add(table_name)
        self._removed_fingerprints[table_name] = removed_fingerprint
        self.mutations += 1

    def update(self, table: Table) -> bool:
        """Re-catalog a table if its content changed.

        Returns ``True`` when the table was stale and re-signed, ``False``
        when the fingerprint matched and nothing was recomputed.
        """
        if table.name not in self._fingerprints:
            raise KeyError(f"table {table.name!r} not cataloged; use add()")
        fingerprint = self._changed_fingerprint(table)
        if fingerprint is None:
            return False
        self.remove(table.name)
        self.add(table, fingerprint=fingerprint)
        return True

    def _changed_fingerprint(self, table: Table):
        """The new fingerprint of a cataloged table whose content
        changed; ``None`` (with the index rebound to ``table``) when it
        did not."""
        if table is self._index.get_table(table.name):
            # The very object already indexed: Tables are immutable by
            # library convention, so skip the full-content fingerprint.
            return None
        fingerprint = table_fingerprint(table)
        if fingerprint == self._fingerprints[table.name]:
            self._index.rebind_table(table)
            return None
        return fingerprint

    def is_stale(self, table: Table) -> bool:
        """True when ``table``'s content differs from the version this
        catalog knows — live in this process or recorded by the last
        save (or it was never cataloged)."""
        recorded = self._fingerprints.get(table.name) or self._persisted.get(
            table.name
        )
        return recorded is None or recorded != table_fingerprint(table)

    def refresh(self, corpus) -> CatalogDiff:
        """Synchronize the catalog with ``corpus`` (dict or iterable of
        Tables): add new tables, re-sign stale ones, drop missing ones.

        The diff is relative to what the catalog knew before — including
        the saved manifest, so re-opening a catalog in a fresh process and
        refreshing against an unchanged corpus reports every table as
        ``unchanged`` (hydrated from disk), not ``added``.

        Refreshing against the very same Table objects the catalog
        already holds (the common warm-start shape: ``Catalog.load(root,
        corpus)`` followed by ``DiscoveryEngine(corpus=..., catalog=...)
        .prepare(base)``)
        is detected by identity and skips re-fingerprinting the corpus.
        Consequently, mutating a cataloged Table's cells in place is not
        detected — like the rest of the library (materialization caches
        key by object identity too), the catalog treats Tables as
        immutable; represent changed content as a new Table object.
        """
        values = corpus.values() if isinstance(corpus, dict) else corpus
        # Key by Table.name, never by the caller's dict keys: every
        # internal map is name-keyed, and an aliased key would otherwise
        # make the diff logic remove/re-sign the same table forever.
        # Distinct tables sharing a name must fail loudly (the cold
        # DiscoveryIndex.build path raises too), not silently collapse.
        tables = {}
        for table in values:
            if table.name in tables and tables[table.name] is not table:
                raise ValueError(
                    f"duplicate table name {table.name!r} in corpus"
                )
            tables[table.name] = table
        current = self._index.tables
        if (
            set(tables) == set(self._fingerprints)
            and set(self._persisted) <= set(tables)
            and all(tables[name] is current.get(name) for name in tables)
        ):
            return CatalogDiff(unchanged=sorted(tables))
        diff = CatalogDiff()
        known = set(self._fingerprints) | set(self._persisted)
        for name in sorted(known - set(tables)):
            if name in self._fingerprints:
                self.remove(name)
            else:
                # Known only from the manifest (never hydrated here):
                # still an unsaved removal — a save now would drop it from
                # disk — and its fingerprint stays usable for an identical
                # re-add's snapshot fast path.
                previous = self._persisted.pop(name, None)
                self._removed_since_save.add(name)
                if previous is not None:
                    self._removed_fingerprints[name] = previous
                self.mutations += 1
            diff.removed.append(name)
        incoming = {}
        for name in sorted(tables):
            if name in self._fingerprints:
                fingerprint = self._changed_fingerprint(tables[name])
                if fingerprint is None:
                    diff.unchanged.append(name)
                    continue
            else:
                fingerprint = table_fingerprint(tables[name])
            incoming[name] = fingerprint
        present = {}
        if self.store is not None:
            present = {
                name: self.store.has_object(self._object_id(fingerprint))
                for name, fingerprint in incoming.items()
            }
        for name, fingerprint in incoming.items():
            if name in self._fingerprints:
                previous = self._fingerprints[name]
                self.remove(name)
            else:
                previous = self._persisted.get(name)
            self._add(tables[name], fingerprint, present.get(name))
            if previous is None:
                diff.added.append(name)
            elif previous == fingerprint:
                diff.unchanged.append(name)
            else:
                diff.updated.append(name)
        diff.unchanged.sort()
        diff.updated.sort()
        return diff

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> None:
        """Write the manifest snapshot (objects are persisted as they are
        computed; this records which of them form the current catalog).

        Tables known only from the previous save (a loaded catalog that
        was never refreshed against a corpus holds no live Table objects)
        are carried forward rather than truncated — saving must never
        shrink the catalog below what it still references; only
        :meth:`remove`/:meth:`refresh` drop tables.

        The whole transition runs under the store's root advisory file
        lock and *merges* with what is on disk: tables saved there by a
        concurrent writer (another process indexing a different slice of
        the corpus) that this catalog has never seen — and never removed
        — are carried forward, manifest and snapshot rows alike, so
        concurrent ``catalog build``/``update`` runs against one store
        compose instead of overwriting each other.  The merge respects
        peer removals symmetrically: a carried-forward table (known only
        from an earlier save, not hydrated here) that a peer's save has
        since dropped from the on-disk manifest stays dropped — its
        object may already be gc'd, and resurrecting the name would
        leave a manifest pointing at nothing.  Tables live in *this*
        process are always saved (this catalog observed them in its
        corpus).  A store whose on-disk config differs is a genuine
        conflict and raises.

        The manifest starts referencing an object only here, so this is
        where a reference is checked: under the same lock, every live
        table whose fingerprint the on-disk manifest does not already
        list — written or adopted by this process — must have its object
        on disk, and one that is missing (a ``gc`` reclaimed it since it
        was written or adopted) is re-derived from the live table before
        the manifest is written.  :meth:`gc` runs under the same lock,
        so nothing can reclaim it between the check and the manifest.
        """
        if self.store is None:
            raise CatalogStoreError("catalog has no store attached")
        with self.store.root_lock():
            on_disk = self.store.read_manifest()
            foreign = {}
            persisted = dict(self._persisted)
            listed = set()
            if on_disk is not None:
                if on_disk["config"] != self.config:
                    raise CatalogStoreError(
                        f"catalog at {self.store.root!r} now holds config "
                        f"{on_disk['config']!r}, which differs from this "
                        f"catalog's {self.config!r}; refusing to merge the "
                        "save"
                    )
                listed = set(on_disk["tables"].values())
                known = (
                    set(self._fingerprints)
                    | set(self._persisted)
                    | self._removed_since_save
                )
                foreign = {
                    name: fingerprint
                    for name, fingerprint in on_disk["tables"].items()
                    if name not in known
                }
                # Honor peer removals: only carry forward names the
                # on-disk manifest still lists (or that are live here).
                persisted = {
                    name: fingerprint
                    for name, fingerprint in persisted.items()
                    if name in on_disk["tables"] or name in self._fingerprints
                }
            for name, fingerprint in sorted(self._fingerprints.items()):
                object_id = self._object_id(fingerprint)
                if fingerprint not in listed and not self.store.has_object(object_id):
                    self._compute_and_persist(self._index.get_table(name), object_id)
            combined = {**foreign, **persisted, **self._fingerprints}
            tables = self._index.tables
            disk_snapshot = None
            rows = []
            for name in sorted(combined):
                if name in self._fingerprints:
                    for column in tables[name].column_names:
                        ref = ColumnRef(name, column)
                        rows.append(
                            (
                                name,
                                self._fingerprints[name],
                                column,
                                self._index.signature_of(ref),
                            )
                        )
                else:
                    # Not hydrated in this process (carried forward from
                    # the previous save, or saved by a concurrent
                    # writer): keep the on-disk snapshot's rows.  They
                    # are fingerprint-checked, so stale rows drop out
                    # and the objects still cover the table.
                    if disk_snapshot is None:
                        disk_snapshot = self.store.read_snapshot() or {}
                    recorded = disk_snapshot.get(name)
                    if recorded is not None and recorded[0] == combined[name]:
                        for column, signature in recorded[1].items():
                            rows.append(
                                (name, combined[name], column, signature)
                            )
            # Snapshot before manifest: rows are fingerprint-checked at
            # read time, so either crash-ordering leaves a consistent
            # store.
            self.store.write_snapshot(rows)
            self.store.write_manifest(self.config, combined)
        self._persisted = combined
        self._removed_since_save = set()
        self._removed_fingerprints = {}
        self._snapshot_read = False
        self._snapshot = None

    def gc(self) -> int:
        """Delete stored objects no cataloged table references.

        "Referenced" means live in this process *or* recorded by the
        on-disk manifest — a freshly loaded catalog that was never
        refreshed, and unsaved removals (an in-memory refresh against a
        filtered corpus), must not reclaim objects the saved manifest
        still points at.  The manifest is read once, under the root
        lock the whole pass holds, so no save lands in between.
        """
        if self.store is None:
            return 0
        with self.store.root_lock():
            manifest = self.store.read_manifest() or {"tables": {}}
            live = {
                self._object_id(fingerprint)
                for fingerprint in (
                    *self._fingerprints.values(),
                    *self._persisted.values(),
                    *manifest["tables"].values(),
                )
            }
            return self.store.gc(live)

    def verify(self) -> dict:
        """Integrity check of the persisted catalog.

        Runs the store's deep :meth:`~CatalogStore.verify` (every object
        and profile group decodes) and
        additionally checks that every table the root manifest references
        still has a readable object — the invariant concurrent writers
        and crash recovery must preserve.  Returns the store report with
        a ``"tables"`` count added; an intact catalog reports no
        problems."""
        if self.store is None:
            raise CatalogStoreError("catalog has no store attached")
        report = self.store.verify()
        manifest = self.store.read_manifest() or {"tables": {}}
        for name, fingerprint in sorted(manifest["tables"].items()):
            object_id = self._object_id(fingerprint)
            try:
                self.store.read_object(object_id)
            except (KeyError, CatalogStoreError) as error:
                report["problems"].append(
                    f"table {name!r}: object {object_id!r} unreadable: {error}"
                )
        report["tables"] = len(manifest["tables"])
        return report

    @classmethod
    def load(cls, root, corpus=None) -> "Catalog":
        """Open a saved catalog, adopting its stored config.

        With ``corpus`` given, the catalog is hydrated against it via
        :meth:`refresh` — unchanged tables load their artifacts from disk,
        stale or new ones are (re-)signed.
        """
        store = root if isinstance(root, CatalogStore) else CatalogStore(root)
        manifest = store.read_manifest()
        if manifest is None:
            raise CatalogStoreError(f"no catalog manifest at {store.root!r}")
        config = manifest["config"]
        if config.keys() != _CONFIG_KEYS:
            raise CatalogStoreError(
                f"catalog at {store.root!r} records config {config!r}; this "
                f"release builds only configs with the keys {sorted(_CONFIG_KEYS)} "
                "and does not migrate — the catalog is derived data: remove "
                f"the directory and rebuild with `repro catalog build {store.root}`"
            )
        catalog = cls(store=store, **config)
        if corpus is not None:
            catalog.refresh(corpus)
        return catalog

    @classmethod
    def open(cls, root, corpus=None, **config) -> "Catalog":
        """Load the catalog at ``root`` if one exists, else create it.

        ``config`` applies only on creation; an existing catalog keeps its
        stored config, and a :class:`UserWarning` is emitted for any
        requested value the stored config overrides.  ``corpus`` triggers
        a :meth:`refresh` either way.
        """
        store = root if isinstance(root, CatalogStore) else CatalogStore(root)
        if store.exists():
            catalog = cls.load(store, corpus=corpus)
            ignored = {
                key: (value, catalog.config[key])
                for key, value in config.items()
                if catalog.config.get(key) != value
            }
            if ignored:
                import warnings

                warnings.warn(
                    f"catalog at {store.root!r} already exists; keeping its "
                    f"stored config (ignored requested values: {ignored})",
                    stacklevel=2,
                )
            return catalog
        catalog = cls(store=store, **config)
        if corpus is not None:
            catalog.refresh(corpus)
        return catalog

    # ------------------------------------------------------------------
    # Profile vectors
    # ------------------------------------------------------------------
    def profile_cache(
        self, base: Table, registry, sample_size: int = 100, seed: int = 0
    ) -> "ProfileCache":
        """A profile-vector cache scoped to one base table.

        Pass the result as ``cache=`` to
        :func:`repro.discovery.candidates.profile_candidates`.
        """
        return ProfileCache(
            base_fingerprint=table_fingerprint(base),
            table_fingerprints=self.fingerprints,
            # The registry fingerprint, not the names: identically-named
            # registries with different hyperparameters (dim, bins, seeds)
            # must never share cached vectors.
            registry_names=[registry_fingerprint(registry)],
            sample_size=sample_size,
            seed=seed,
            store=self.store,
        )

    def evict_profiles(self, budget_bytes: int):
        """Evict least-recently-used cached profile groups until the
        profile section fits ``budget_bytes``; returns
        ``(evicted_groups, freed_bytes)``."""
        if self.store is None:
            return (0, 0)
        return self.store.evict_profiles(budget_bytes)

    def _stats_object(self, name: str, fingerprint: str):
        """``(column names, size in bytes, entries)`` of one table for
        :meth:`corpus_stats`, from its stored object.

        A missing or corrupt object heals by recomputation when a live
        table is attached and raises otherwise.  A meta without
        ``size_bytes`` is corrupt: every object of this layout was
        written with one.
        """
        object_id = self._object_id(fingerprint)
        try:
            meta, entries = self.store.read_object(object_id)
            return meta["column_names"], int(meta["size_bytes"]), entries
        except (KeyError, CatalogStoreError):
            live = self._index.get_table(name) if name in self._fingerprints else None
            if live is None:
                raise CatalogStoreError(
                    f"corpus stats need catalog object {object_id!r} for "
                    f"table {name!r}, which is missing or corrupt, and no "
                    "live table is attached to recompute it"
                ) from None
            entries = self._compute_and_persist(live, object_id)
            return live.column_names, live.estimated_byte_size(), entries

    def corpus_stats(self) -> dict:
        """Table-I corpus characteristics served from disk artifacts.

        Reads each cataloged table's object once — metadata for the
        column and size counts, entries for the joinable count — into a
        transient index of zero-row tables and runs
        :meth:`DiscoveryIndex.joinable_columns` on it, the pass
        :func:`repro.data.corpus_characteristics` runs on a live corpus,
        so the two reports agree.  No raw corpus is loaded and no stored
        column is re-signed; every stored entry is resident for the
        pass.  A missing or corrupt object heals by recomputation when
        its live table is attached and raises :class:`CatalogStoreError`
        otherwise (never a silently wrong report).
        """
        if self.store is None:
            raise CatalogStoreError("catalog has no store attached")
        combined = {**self._persisted, **self._fingerprints}
        index = DiscoveryIndex(**self.config)
        size_bytes = 0
        for name in sorted(combined):
            columns, size, entries = self._stats_object(name, combined[name])
            index.add_table(Table(name, dict.fromkeys(columns, ())), entries=entries)
            size_bytes += size
        return {
            "tables": len(combined),
            "columns": index.num_indexed_columns,
            "joinable_columns": len(index.joinable_columns()),
            "size_bytes": size_bytes,
        }

    def stats(self) -> dict:
        """In-memory + on-disk statistics."""
        out = {
            "tables": len(self._fingerprints),
            "indexed_columns": self._index.num_indexed_columns,
            "computed_columns": self.computed_columns,
            "loaded_columns": self.loaded_columns,
            "config": self.config,
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out


class ProfileCache:
    """Cached profile vectors for candidates of one base table.

    Keys embed the fingerprints of the base table and of every table on a
    candidate's join path, so any upstream content change invalidates the
    entry automatically.  Candidates whose path tables are unknown to the
    catalog are simply not cached.
    """

    def __init__(
        self,
        base_fingerprint: str,
        table_fingerprints: dict,
        registry_names,
        sample_size: int,
        seed: int,
        store: CatalogStore = None,
    ):
        self.base_fingerprint = base_fingerprint
        self._table_fingerprints = dict(table_fingerprints)
        self._registry_names = list(registry_names)
        self._sample_size = sample_size
        self._seed = seed
        self.store = store
        self._entries = store.read_profiles(base_fingerprint) if store else {}
        self._dirty = False
        self._last_key = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, candidate):
        aug = candidate.aug
        path = getattr(aug, "path", None)
        if path is not None:
            path_tables = [step.right_table for step in path.steps]
        else:
            path_tables = [aug.final_table]
        fingerprints = []
        for name in path_tables:
            fingerprint = self._table_fingerprints.get(name)
            if fingerprint is None:
                return None
            fingerprints.append(fingerprint)
        return profile_key(
            self.base_fingerprint,
            candidate.aug_id,
            fingerprints,
            self._registry_names,
            self._sample_size,
            self._seed,
        )

    def _candidate_key(self, candidate):
        """Key for ``candidate``, reusing the last computation — the
        get-miss-then-put sequence in ``profile_candidates`` would
        otherwise hash every join-path fingerprint twice per candidate."""
        if self._last_key is not None and self._last_key[0] is candidate:
            return self._last_key[1]
        key = self._key(candidate)
        self._last_key = (candidate, key)
        return key

    def get(self, candidate):
        """Cached vector for ``candidate``, or ``None`` on a miss."""
        key = self._candidate_key(candidate)
        vector = self._entries.get(key) if key is not None else None
        if vector is None:
            self.misses += 1
            return None
        self.hits += 1
        return vector.copy()

    def put(self, candidate, vector) -> None:
        key = self._candidate_key(candidate)
        if key is None:
            return
        self._entries[key] = vector.copy()
        self._dirty = True

    def flush(self) -> None:
        """Persist new entries (no-op without a store or new vectors).

        A failed write degrades to a warning: cached profiles are a pure
        optimization, and flush runs in ``finally`` blocks where raising
        would mask the original exception.
        """
        if self.store is not None and self._dirty:
            try:
                self.store.write_profiles(self.base_fingerprint, self._entries)
                self._dirty = False
            except OSError as error:
                import warnings

                warnings.warn(
                    f"could not persist profile cache: {error}", stacklevel=2
                )
