"""Persistent catalog: on-disk, incrementally-updatable discovery state.

The Metam paper assumes a pre-built Aurum index; this package is the
production analogue for the reproduction — a content-addressed store of
per-table artifacts (distinct-value sets, MinHash signatures, metadata,
profile vectors) plus a :class:`Catalog` facade that maintains a live
:class:`~repro.discovery.index.DiscoveryIndex` incrementally and
warm-starts discovery runs from disk instead of re-indexing the corpus.

Store layout
    Objects and profile groups are sharded into 256 hash-prefix
    directories (``objects/ab/<fp>.bin``), so no directory grows
    unboundedly as the corpus scales.  There is one layout (version 4).
    The catalog is
    derived data: a root this release cannot read raises
    :class:`CatalogStoreError` naming ``repro catalog build`` — it is
    rebuilt from the corpus, not migrated.

Object format
    An object is exactly one file, encoded by
    :class:`~repro.catalog.codec.BinaryCodec` (codec version 2: packed
    value sets + raw signatures, zlib-deflated, canonical bytes).  Any
    other file beside it is not an object; a table whose ``.bin`` is
    missing or corrupt is re-derived from the live table.

Profile eviction
    Cached profile groups are LRU-tracked by their files' size and
    mtime (a read moves the mtime).  :meth:`Catalog.evict_profiles` /
    ``repro catalog gc --profile-budget`` drop the least-recently-used
    groups until the section fits a budget, on demand.

Catalog-backed reports
    :meth:`Catalog.corpus_stats` serves the Table-I corpus report
    entirely from disk artifacts (object metadata + stored signatures
    and value sets) — no corpus loading, no column re-signing.  Every
    stored entry is read once into a transient
    :class:`~repro.discovery.index.DiscoveryIndex`, whose
    ``joinable_columns`` pass is the one the in-memory report runs.

Backend and write ownership
    All physical I/O goes through one :class:`LocalFSBackend` (plain
    files; ``CatalogStore(root, backend=...)`` takes another instance
    with the same methods).  Writers hold leases
    (:class:`~repro.catalog.leases.LeaseManager`) spanning their
    write→save window and claim every object before they write or adopt
    it; ``gc`` both skips claimed objects and re-checks liveness under
    the shard lock — closing the race where a concurrently written
    object was reclaimed before its ``save()`` landed.
"""

from repro.catalog.backend import LocalFSBackend
from repro.catalog.catalog import Catalog, CatalogDiff, ProfileCache
from repro.catalog.codec import BinaryCodec
from repro.catalog.leases import Lease, LeaseManager
from repro.catalog.fingerprint import (
    config_fingerprint,
    profile_key,
    registry_fingerprint,
    shard_of,
    table_fingerprint,
)
from repro.catalog.store import CatalogStore, CatalogStoreError

__all__ = [
    "Catalog",
    "CatalogDiff",
    "ProfileCache",
    "CatalogStore",
    "CatalogStoreError",
    "BinaryCodec",
    "table_fingerprint",
    "config_fingerprint",
    "profile_key",
    "registry_fingerprint",
    "shard_of",
    "LocalFSBackend",
    "Lease",
    "LeaseManager",
]
