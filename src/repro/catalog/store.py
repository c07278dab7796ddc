"""Sharded, size-budgeted on-disk store backing the persistent catalog.

One layout, one object format::

    manifest.json               catalog config + {table name: fingerprint}
    objects/ab/<fp>.bin         per-table derived artifacts (distinct sets,
                                MinHash signatures, metadata), addressed by
                                the fingerprint of the source table and
                                sharded by a 2-hex-digit hash prefix
    profiles/cd/<fp>.npz        cached profile vectors, grouped by the
                                fingerprint of the base (query) table:
                                keys, lengths and the concatenated vectors
    leases/<owner>.json         write-ownership leases and their claims
    snapshot.npz                packed signature matrix for warm starts

The store holds discovery artifacts only.  Nothing else under the root
is read: a ``results/`` tree left by a release before 2.3.0 (which
persisted run records there) is inert and can be removed.

Sharding keeps every directory bounded: a store with 10⁵ tables spreads
them over 256 object shards, so directory scans and atomic-rename
pressure stay flat as the catalog grows.

An object is exactly one file, ``objects/<shard>/<fingerprint>.bin``,
encoded by :class:`~repro.catalog.codec.BinaryCodec` — ``has_object`` is
one ``exists`` and ``read_object`` one read + one decode.  The catalog
is *derived* data, so there is no migration: a root manifest whose
``version`` is not the integer :data:`VERSION` raises
:class:`CatalogStoreError` telling the user to rebuild with ``repro
catalog build``, and any other file in a shard directory (another
format's ``<fp>.json``, editor droppings) is not an object — the object
is simply missing and gets re-derived from the live table, exactly like
a gc'd or corrupt one.

Objects are immutable once written — a changed table gets a new
fingerprint and therefore a new object — so incremental updates never
rewrite artifacts of unchanged tables.  ``gc`` reclaims objects no live
table references.

Cached profile groups are the one section that can grow without bound,
so they carry an LRU policy: a group's size and recency are its file's
size and mtime (a read moves the mtime with a backend ``touch``, not a
write), and :meth:`evict_profiles` drops the least-recently-used groups
until the section fits a budget.

Every file lands via a unique temp file + rename, and object writes,
existence checks and deletions in a shard run under its advisory file
lock (``<shard>/.lock``), so concurrent ``build``/``update``/``gc``
processes can add and remove in any interleaving.  All physical I/O
goes through one backend object (:class:`LocalFSBackend` unless the
caller passes another instance): one plain file per path.

Writers own their in-flight objects through time-bounded **leases**
(:mod:`repro.catalog.leases`) under one rule: **claim before you write
or adopt**.  The lease file's ``claims`` list is the one ownership
record.  ``write_object`` claims the id before the file lands (nothing,
when the lease already claims it — ``Catalog.refresh`` claims every id
it will write in one lease write up front); :meth:`claim_objects`,
called by ``Catalog.save()`` for the objects a warm start adopted,
claims them the same way and then checks each under its shard lock,
reporting the ones gone so the caller re-derives them.  A process that
never saves never writes: it holds no lease, and an object that
vanishes under it is recomputed from the live table on first read.

:meth:`CatalogStore.gc` skips an unreferenced object another live lease
claims, then re-checks liveness via the caller's ``live_check``, both
under the shard lock.  That is safe because the claim is durable
*before* the claimer takes the lock: either gc went first (the object
is missing, and is written or re-derived) or it comes later and sees
the claim — the manifest never points at nothing.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import os
import threading
import time

import numpy as np

from repro.catalog.backend import CatalogStoreError, LocalFSBackend
from repro.catalog.codec import BinaryCodec
from repro.catalog.fingerprint import shard_of
from repro.catalog.leases import DEFAULT_LEASE_TTL, LeaseManager

#: The one layout version this code reads and writes (4: ownership is
#: the lease claims alone — a layout-3 builder's object records, which
#: this gc no longer reads, must never share a root with it).  Object
#: addresses are unchanged since 3.
VERSION = 4
#: The one object codec.
CODEC = BinaryCodec()

# Overridable clock for deterministic LRU tests.
_now = time.time

#: FileLock wait-time buckets: finer than the default latency buckets at
#: the small end — uncontended flock acquisition is tens of microseconds.
LOCK_WAIT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def register_store_metrics(registry):
    """Get-or-create the store's metric families on ``registry``.

    Shared by :meth:`CatalogStore.attach_metrics` and by the engine's
    pre-registration pass (so exposition covers the store families even
    before a store-backed catalog is attached)."""
    return {
        "reads": registry.counter(
            "repro_store_reads_total",
            "Artifacts read from the sharded store, by section.",
            labels=("section",),
        ),
        "writes": registry.counter(
            "repro_store_writes_total",
            "Artifacts written to the sharded store, by section.",
            labels=("section",),
        ),
        "read_bytes": registry.counter(
            "repro_store_read_bytes_total",
            "Bytes read from store artifacts, by section.",
            labels=("section",),
        ),
        "write_bytes": registry.counter(
            "repro_store_write_bytes_total",
            "Bytes written to store artifacts, by section.",
            labels=("section",),
        ),
        "lock_wait": registry.histogram(
            "repro_store_lock_wait_seconds",
            "Advisory FileLock acquisition wait time, by store section.",
            labels=("section",),
            buckets=LOCK_WAIT_BUCKETS,
        ),
        "lease_acquires": registry.counter(
            "repro_store_lease_acquires_total",
            "Write-ownership leases acquired, by holder kind.",
            labels=("kind",),
        ),
        "lease_renewals": registry.counter(
            "repro_store_lease_renewals_total",
            "Write-ownership lease renewals.",
        ),
        "gc_skipped": registry.counter(
            "repro_store_gc_skipped_total",
            "Unreferenced gc candidates preserved by the under-lock "
            "re-check, by reason (an active writer lease, or liveness "
            "re-established by a save that landed after the scan).",
            labels=("reason",),
        ),
    }


class _TimedLock:
    """A :class:`FileLock` wrapper that times acquisition waits."""

    __slots__ = ("_lock", "_histogram")

    def __init__(self, lock, histogram):
        self._lock = lock
        self._histogram = histogram

    def __enter__(self):
        start = time.perf_counter()
        self._lock.__enter__()
        self._histogram.observe(time.perf_counter() - start)
        return self

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


def _seconds(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite duration in seconds (``> 0`` when
    ``positive``, else ``>= 0``); anything else is a ``ValueError``
    naming the argument — a zero, negative, NaN or infinite lifetime
    would silently switch the protection it parameterises off (or make
    it permanent)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0 or (positive and seconds == 0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return seconds


def _byte_budget(name: str, value):
    """``value`` as a byte budget: an int ``>= 0`` (``bool`` is not a
    byte count).  Anything else is a ``ValueError`` naming the argument
    — a negative or NaN budget would evict every entry."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0:
        return value
    raise ValueError(f"{name} must be an int >= 0, got {value!r}")


class CatalogStore:
    """Filesystem persistence for catalog artifacts.

    The cached-profile section is trimmed on demand with
    :meth:`evict_profiles`.  ``clock_skew`` widens lease expiry so a
    collector whose clock runs ahead cannot expire a writer's lease
    early.  The store holds discovery artifacts only — table objects,
    profile groups and the index snapshot — never run records.

    ``backend`` is the I/O object (``None``: a
    :class:`~repro.catalog.backend.LocalFSBackend` over ``root``).
    ``lease_ttl`` is the write-ownership lease lifetime in seconds; it
    must be finite and positive — leases cannot be disabled.
    """

    #: Advisory lock sidecar, one per locked directory.
    LOCK_NAME = ".lock"

    def __init__(
        self,
        root: str,
        clock_skew: float = 0.0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        backend=None,
    ):
        if lease_ttl is None:
            raise ValueError(
                "lease_ttl must be a number of seconds, got None: leases "
                "can no longer be disabled"
            )
        self.lease_ttl = _seconds("lease_ttl", lease_ttl, positive=True)
        self.clock_skew = _seconds("clock_skew", clock_skew)
        self.root = str(root)
        if isinstance(backend, str):
            raise TypeError(f"backend must be a backend instance, not the name {backend!r}")
        self.backend = LocalFSBackend(self.root) if backend is None else backend
        #: Write-ownership leases: gc consults the active set before
        #: reclaiming anything unreferenced.
        self.leases = LeaseManager(
            self.backend,
            self.root,
            ttl=self.lease_ttl,
            clock_skew=self.clock_skew,
            clock=lambda: _now(),
        )
        self._writer_lease = None
        self._writer_lease_guard = threading.Lock()
        #: Breakdown of the most recent :meth:`gc` pass on this instance
        #: (``removed`` / ``skipped_leased`` / ``skipped_live``).
        self.last_gc = {"removed": 0, "skipped_leased": 0, "skipped_live": 0}
        #: Test seam: called with ``"claims-published"`` once a claim is
        #: durable — between :meth:`write_object`'s claim and its file,
        #: and between :meth:`claim_objects`' claim and its first
        #: existence check.  Fault tests raise (or ``os._exit``) from it
        #: to kill a writer mid-protocol.
        self.fault_hook = None
        #: Metric family handles (see :meth:`attach_metrics`); ``None``
        #: keeps every instrumentation site free.
        self.obs = None

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def attach_metrics(self, registry) -> "CatalogStore":
        """Record store activity (reads/writes/bytes, lock waits,
        leases, gc skips) on ``registry``.  Families
        are get-or-create, so attaching many stores to one registry
        aggregates them.  Returns ``self``."""
        self.obs = register_store_metrics(registry)
        return self

    def _count(self, name: str, section: str, amount: float = 1.0) -> None:
        if self.obs is not None:
            self.obs[name].labels(section=section).inc(amount)

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------
    def _lock_section(self, directory: str) -> str:
        """Store section a lock path belongs to (the metric label)."""
        rel = os.path.relpath(directory, self.root)
        if rel == ".":
            return "root"
        head = rel.split(os.sep, 1)[0]
        return head if head in ("objects", "profiles") else "other"

    def _dir_lock(self, directory: str):
        """Advisory file lock guarding one directory's files (wait time
        lands in the lock-wait histogram when metrics are on)."""
        lock = self.backend.lock(os.path.join(directory, self.LOCK_NAME))
        if self.obs is None:
            return lock
        return _TimedLock(
            lock,
            self.obs["lock_wait"].labels(section=self._lock_section(directory)),
        )

    def root_lock(self):
        """Advisory file lock guarding whole-store transitions (the root
        manifest + snapshot pair); taken by :meth:`Catalog.save` so
        concurrent savers merge instead of overwriting each other."""
        return self._dir_lock(self.root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _object_shard_dir(self, fingerprint: str) -> str:
        return os.path.join(self._objects_dir(), shard_of(fingerprint))

    def _object_path(self, fingerprint: str) -> str:
        """The one file that is this object."""
        return os.path.join(
            self._object_shard_dir(fingerprint), f"{fingerprint}{CODEC.extension}"
        )

    def _profiles_dir(self) -> str:
        return os.path.join(self.root, "profiles")

    def _profile_shard_dir(self, base_fingerprint: str) -> str:
        return os.path.join(self._profiles_dir(), shard_of(base_fingerprint))

    def _profile_path(self, base_fingerprint: str) -> str:
        return os.path.join(
            self._profile_shard_dir(base_fingerprint), f"{base_fingerprint}.npz"
        )

    def exists(self) -> bool:
        return self.backend.exists(self.manifest_path)

    # ------------------------------------------------------------------
    # Backend I/O helpers (tolerant variants of the backend primitives)
    # ------------------------------------------------------------------
    def _size(self, path: str) -> int:
        try:
            return self.backend.size(path)
        except OSError:
            return 0

    def _remove(self, path: str) -> None:
        try:
            self.backend.remove(path)
        except FileNotFoundError:
            pass

    def _write_json(self, path: str, payload) -> None:
        self.backend.write_bytes(
            path, json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def read_manifest(self):
        """Manifest dict, or ``None`` if the store was never saved.

        Only layout :data:`VERSION` opens (the integer, not ``True``):
        the catalog is derived data, so a root written by any other
        version is rebuilt from the corpus, never migrated."""
        try:
            raw = self.backend.read_bytes(self.manifest_path)
        except FileNotFoundError:
            return None
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CatalogStoreError(
                f"corrupt catalog manifest at {self.manifest_path!r}: {error}"
            ) from error
        version = manifest.get("version") if isinstance(manifest, dict) else None
        if type(version) is not int or version != VERSION:
            raise CatalogStoreError(
                f"catalog at {self.root!r} has layout version {version!r}; "
                f"this release reads only version {VERSION} and does not "
                "migrate — the catalog is derived data: remove the "
                f"directory and rebuild with `repro catalog build {self.root}`"
            )
        return manifest

    def write_manifest(self, config: dict, tables: dict) -> None:
        """Persist config + the name→fingerprint snapshot atomically."""
        self.backend.makedirs(self.root)
        payload = {
            "version": VERSION,
            "config": dict(config),
            "tables": dict(sorted(tables.items())),
        }
        self._write_json(self.manifest_path, payload)

    # ------------------------------------------------------------------
    # Table objects
    # ------------------------------------------------------------------
    def has_object(self, fingerprint: str) -> bool:
        return self.backend.exists(self._object_path(fingerprint))

    # ------------------------------------------------------------------
    # Write-ownership leases
    # ------------------------------------------------------------------
    def writer_lease(self):
        """This store's current writer lease (acquired on first use,
        renewed once half its TTL has passed).  Its ``claims`` tell gc
        in-flight work from garbage.

        The guard only protects the ``_writer_lease`` slot; the lease
        *file* work — ``acquire()``/``renew()`` take the store-wide
        lease lock and write through the backend — runs outside it, so
        a slow disk (or contended lease lock) never stalls every other
        thread's ``writer_lease()`` behind an in-process mutex.  Two
        threads racing the cold path may both acquire; the loser's
        surplus lease is released immediately and both return the
        published one.
        """
        with self._writer_lease_guard:
            lease = self._writer_lease
        if lease is not None and _now() - lease.acquired <= self.leases.ttl / 2:
            return lease
        if lease is None:
            fresh = self.leases.acquire(kind="writer")
            if self.obs is not None:
                self.obs["lease_acquires"].labels(kind="writer").inc()
        else:
            fresh = self.leases.renew(lease)
            if self.obs is not None:
                self.obs["lease_renewals"].inc()
        surplus = None
        with self._writer_lease_guard:
            current = self._writer_lease
            if current is lease or current is None:
                # Uncontended (or a release landed meanwhile): publish
                # ours.  Publishing a renewal after a concurrent
                # release re-establishes ownership, which is exactly
                # what this caller asked for.
                self._writer_lease = fresh
                published = fresh
            elif lease is None:
                # Another thread's acquire won the race; ours is
                # surplus and must be returned, not leaked until TTL.
                surplus = fresh
                published = current
            else:
                # Another thread renewed the same lease first; either
                # stamp carries the same owner — keep theirs.
                published = current
        if surplus is not None:
            self.leases.release(surplus)
        return published

    def release_writer_lease(self) -> None:
        """Give up write ownership and every claim with it — called
        once the writer's references are durably published
        (:meth:`Catalog.save`), after which its objects are protected by
        the manifest, not the lease."""
        with self._writer_lease_guard:
            lease, self._writer_lease = self._writer_lease, None
        if lease is not None:
            self.leases.release(lease)

    def claim(self, fingerprints) -> None:
        """Make ``fingerprints`` durable claims of this writer's lease:
        one lease write, none when the lease already claims them all.

        :meth:`write_object` and :meth:`claim_objects` claim through
        here; :meth:`Catalog.refresh` calls it once with every id it is
        about to write, so the writes that follow publish nothing."""
        wanted = set(fingerprints)
        if not wanted:
            return
        lease = self.writer_lease()
        wanted -= lease.claims
        if not wanted:
            return
        claimed = self.leases.renew(lease, claims=wanted)
        if self.obs is not None:
            self.obs["lease_renewals"].inc()
        with self._writer_lease_guard:
            held = self._writer_lease
            # A lease's claims only grow, so of two writes by racing
            # threads the larger set is the later one: keep it, so the
            # skip above sees every published claim.
            if (
                held is not None
                and held.owner == claimed.owner
                and len(claimed.claims) >= len(held.claims)
            ):
                self._writer_lease = claimed

    def _by_shard(self, fingerprints) -> dict:
        """``{shard directory: [fingerprint, ...]}``, in input order."""
        groups = {}
        for fingerprint in fingerprints:
            groups.setdefault(
                self._object_shard_dir(fingerprint), []
            ).append(fingerprint)
        return groups

    def claim_objects(self, fingerprints) -> list:
        """Take ownership of *existing* objects this writer is about to
        reference (warm-start hits); returns the ids that are gone — the
        caller re-derives those with :meth:`write_object`.

        Claim, then verify: the ids are claimed first, and only then is
        each checked for presence under its shard lock, one lock per
        shard — where :meth:`gc` reads the claims before deleting, so
        either gc went first (the id comes back missing) or it sees the
        claim and spares the object until :meth:`release_writer_lease`."""
        wanted = set(fingerprints)
        if not wanted:
            return []
        self.claim(wanted)
        self._fault("claims-published")
        missing = []
        for shard_dir, group in self._by_shard(sorted(wanted)).items():
            with self._dir_lock(shard_dir):
                missing.extend(fp for fp in group if not self.has_object(fp))
        return missing

    def write_object(
        self, fingerprint: str, meta: dict, entries: dict, overwrite: bool = False
    ) -> None:
        """Persist one table's derived artifacts (no-op if present:
        objects are content-addressed, so equal fingerprint ⇒ equal
        content).  ``overwrite`` forces the write — used when healing a
        corrupt file with freshly recomputed content.

        Claim, then write: the id is claimed before the file lands, so
        writing and adopting are one path; the presence check and the
        write run under the shard lock, like a :meth:`gc` pass's."""
        self.claim([fingerprint])
        self._fault("claims-published")
        path = self._object_path(fingerprint)
        shard_dir = os.path.dirname(path)
        self.backend.makedirs(shard_dir)
        blob = CODEC.encode(meta, entries)
        with self._dir_lock(shard_dir):
            if not overwrite and self.has_object(fingerprint):
                return
            self.backend.write_bytes(path, blob)
            self._count("writes", "objects")
            self._count("write_bytes", "objects", len(blob))

    def _read_decoded(self, fingerprint: str, decode):
        """One read + one decode of the object's file.  ``KeyError``
        when the file is absent, :class:`CatalogStoreError` (naming the
        path) when it does not decode."""
        path = self._object_path(fingerprint)
        try:
            blob = self.backend.read_bytes(path)
        except FileNotFoundError:
            raise KeyError(f"no catalog object {fingerprint!r}") from None
        try:
            decoded = decode(blob)
        except CatalogStoreError as error:
            raise CatalogStoreError(
                f"corrupt catalog object at {path!r}: {error}"
            ) from error
        self._count("reads", "objects")
        self._count("read_bytes", "objects", len(blob))
        return decoded

    def read_object(self, fingerprint: str, columns=None):
        """Load ``(meta, {column: ColumnEntry})`` for one fingerprint;
        ``columns`` restricts the entries built (see
        :meth:`BinaryCodec.decode`)."""
        return self._read_decoded(
            fingerprint, lambda blob: CODEC.decode(blob, columns)
        )

    def read_object_meta(self, fingerprint: str) -> dict:
        """Just the ``meta`` dict of one object — only the uncompressed
        header is parsed, so Table-I style reports over large catalogs
        never materialize the value sets."""
        return self._read_decoded(fingerprint, CODEC.decode_meta)

    def delete_object(self, fingerprint: str) -> None:
        """Delete one object: remove its file under the shard lock, so a
        concurrent :meth:`write_object` in the shard lands either before
        (and is deleted) or after (and lives)."""
        if not self.has_object(fingerprint):
            return  # no file: leave the shard alone
        with self._dir_lock(self._object_shard_dir(fingerprint)):
            self._remove(self._object_path(fingerprint))

    def list_objects(self) -> list:
        """Fingerprints of all stored table objects.

        An object is ``<shard>/<stem>.bin`` with ``shard_of(stem)`` equal
        to the directory name — exactly the files :meth:`_object_path`
        addresses, so whatever is listed can be read, verified and
        deleted.  Anything else in a shard directory (notes, editor
        droppings, another format's files, a ``.bin`` copied into the
        wrong shard) is not an object: ``gc`` would "delete" it forever
        without touching it and ``verify`` would flag a phantom."""
        objects_dir = self._objects_dir()
        if not self.backend.isdir(objects_dir):
            return []
        found = []
        for shard in self.backend.listdir(objects_dir):
            shard_dir = os.path.join(objects_dir, shard)
            if not self.backend.isdir(shard_dir):
                continue
            for entry in self.backend.listdir(shard_dir):
                stem, ext = os.path.splitext(entry)
                if ext == CODEC.extension and shard_of(stem) == shard:
                    found.append(stem)
        return sorted(found)

    def gc(self, live_fingerprints, live_check=None) -> int:
        """Delete objects not in ``live_fingerprints``; returns the count.

        The live set is a *scan-time* snapshot, so gc groups the other
        objects by shard and, under each shard's lock, reads once:

        1. **Claims** — an object in another active lease's ``claims``
           is a concurrent writer's in-flight work (written or adopted
           after the scan, references not yet saved) and is skipped.
           A crashed writer's lease expires, and its orphans become
           collectible on a later pass.
        2. **Fresh liveness** — ``live_check``, when given, produces an
           up-to-date live set (the catalog re-reads the root manifest):
           an object a just-landed save references is not garbage.

        Claims are read first: a saver writes its manifest before it
        releases its lease, so a claim gone by the first read is a
        reference the second sees.  Per-pass counts land in
        :attr:`last_gc` (and the ``gc_skipped`` metric family).
        """
        live = set(live_fingerprints)
        candidates = self._by_shard(
            fp for fp in self.list_objects() if fp not in live
        )
        removed = 0
        skipped_leased = 0
        skipped_live = 0
        # Leases protect *other* writers' in-flight work.  This store's
        # own writer lease never shields a candidate: the caller just
        # declared its own live set, so anything it owns outside that
        # set is garbage by its own account.
        own = (self._writer_lease,)
        for shard_dir, group in candidates.items():
            with self._dir_lock(shard_dir):
                claims = self.leases.active_claims(exclude=own)
                fresh = set(live_check()) if live_check is not None else set()
                for fingerprint in group:
                    if fingerprint in claims:
                        skipped_leased += 1
                        if self.obs is not None:
                            self.obs["gc_skipped"].labels(reason="leased").inc()
                    elif fingerprint in fresh:
                        skipped_live += 1
                        if self.obs is not None:
                            self.obs["gc_skipped"].labels(reason="live").inc()
                    else:
                        self._remove(self._object_path(fingerprint))
                        removed += 1
        self.last_gc = {
            "removed": removed,
            "skipped_leased": skipped_leased,
            "skipped_live": skipped_live,
        }
        return removed

    # ------------------------------------------------------------------
    # Index snapshot
    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.root, "snapshot.npz")

    def write_snapshot(self, rows) -> None:
        """Persist the hot index state: one (table, fingerprint, column,
        signature) row per indexed column, signatures packed into a single
        uint64 matrix.

        This is what makes warm starts fast — hydrating the LSH index
        needs only this one compact file; the bulky value sets stay in the
        per-table objects and are paged in lazily on first containment
        check.  Each row carries the source table's fingerprint so a
        reader can tell exactly which content the signatures belong to —
        a snapshot that is stale relative to the manifest (crash between
        the two writes) is then detected instead of silently served.
        """
        rows = list(rows)
        self.backend.makedirs(self.root)
        # Fixed-width unicode arrays (never dtype=object): the file can
        # then be read back without allow_pickle, so opening a foreign
        # catalog directory cannot execute a pickle payload.
        tables = np.array([table for table, _f, _c, _s in rows], dtype=str)
        fingerprints = np.array(
            [fingerprint for _t, fingerprint, _c, _s in rows], dtype=str
        )
        columns = np.array([column for _t, _f, column, _s in rows], dtype=str)
        if rows:
            signatures = np.stack([signature for _t, _f, _c, signature in rows])
        else:
            signatures = np.empty((0, 0), dtype=np.uint64)
        # Streamed through the backend (the local FS writes straight
        # into the temp file, not via an in-memory buffer): the snapshot
        # is the largest single artifact, and buffering it would double
        # peak memory on every save.
        with self.backend.write_stream(self.snapshot_path) as handle:
            np.savez(
                handle,
                tables=tables,
                fingerprints=fingerprints,
                columns=columns,
                signatures=signatures,
            )

    def read_snapshot(self):
        """Load ``{table: (fingerprint, {column: signature})}``, or
        ``None`` if absent."""
        try:
            with self.backend.open_read(self.snapshot_path) as handle:
                with np.load(handle) as payload:
                    tables = payload["tables"]
                    fingerprints = payload["fingerprints"]
                    columns = payload["columns"]
                    signatures = payload["signatures"].astype(
                        np.uint64, copy=False
                    )
        except FileNotFoundError:
            return None
        except Exception:
            # The snapshot is a pure optimization over the object store; a
            # corrupt/truncated file (np.load raises anything from
            # BadZipFile to UnpicklingError) must degrade to a slower
            # object-backed start, not crash warm loading.
            return None
        out = {}
        for i, table in enumerate(tables):
            fingerprint, per_column = out.setdefault(
                str(table), (str(fingerprints[i]), {})
            )
            per_column[str(columns[i])] = signatures[i]
        return out

    # ------------------------------------------------------------------
    # Profile vectors
    # ------------------------------------------------------------------
    #: Sentinel distinguishing a corrupt profile archive from a valid
    #: empty one (both would otherwise read back as ``{}``).
    _CORRUPT_PROFILES = object()

    def _read_profile_file(self, path: str):
        """Raw ``{key: vector}`` from one ``.npz`` group file.

        A group is three arrays, whatever its size: ``keys`` (sorted,
        UTF-8 in a fixed-width bytes array), ``lengths`` (``<i8``, one
        per key) and ``vectors`` (every vector, concatenated in key
        order, ``<f8``).  ``None`` when the file is absent,
        :data:`_CORRUPT_PROFILES` when it is damaged — cached profiles
        are a pure optimization, so corruption degrades to recomputation
        (and is overwritten by the next flush), never fails a discovery
        run."""
        try:
            with self.backend.open_read(path) as handle:
                with np.load(handle) as payload:
                    keys = payload["keys"]
                    lengths = payload["lengths"]
                    vectors = payload["vectors"]
            if not (
                keys.ndim == 1
                and keys.dtype.kind == "S"
                and lengths.shape == keys.shape
                and lengths.dtype.kind == "i"
                and vectors.ndim == 1
                and vectors.dtype.kind == "f"
                and (lengths >= 0).all()
                and int(lengths.sum()) == vectors.size
            ):
                return self._CORRUPT_PROFILES
            ends = np.cumsum(lengths)
            vectors = vectors.astype(float, copy=False)
            return {
                key.decode("utf-8"): vectors[start:end]
                for key, start, end in zip(
                    keys.tolist(), (ends - lengths).tolist(), ends.tolist(), strict=True
                )
            }
        except FileNotFoundError:
            return None
        except Exception:
            return self._CORRUPT_PROFILES

    def read_profiles(self, base_fingerprint: str) -> dict:
        """Cached ``{profile key: vector}`` for one base table.

        Reading touches the group's LRU clock, so actively-used bases
        survive eviction."""
        path = self._profile_path(base_fingerprint)
        entries = self._read_profile_file(path)
        if entries is None or entries is self._CORRUPT_PROFILES:
            return {}
        # Reading is a use: move the group's mtime (its LRU clock) to
        # now — a metadata update, not a write.  Outside the load guard:
        # a failed touch must never discard a successfully loaded cache.
        self._touch(path)
        self._count("reads", "profiles")
        self._count("read_bytes", "profiles", self._size(path))
        return entries

    def write_profiles(
        self, base_fingerprint: str, entries: dict, merge: bool = True
    ) -> None:
        """Persist one base table's profile group.

        ``merge=True`` (default) folds ``entries`` into whatever the
        group already holds on disk — union by profile key, new vectors
        winning — under the shard's file lock, so two concurrent
        preparers flushing different vectors for the same base cannot
        drop each other's work.  Profile keys fully determine their
        vectors (they embed every input fingerprint), so merging never
        mixes incompatible values.  ``merge=False`` replaces the group
        outright — for callers that intend a rewrite (a rebuild tool, a
        curation script) rather than a flush."""
        path = self._profile_path(base_fingerprint)
        shard_dir = os.path.dirname(path)
        self.backend.makedirs(shard_dir)
        arrays = {
            key: np.asarray(vector, dtype=float)
            for key, vector in entries.items()
        }
        for key, vector in arrays.items():
            # A fixed-width bytes array would drop a key's trailing NUL.
            if vector.ndim != 1 or not isinstance(key, str) or key.endswith("\x00"):
                raise ValueError(
                    f"profile group {base_fingerprint!r}: entry {key!r} needs a "
                    f"str key without a trailing NUL and a 1-D vector, got "
                    f"shape {vector.shape}"
                )
        with self._dir_lock(shard_dir):
            if merge:
                current = self._read_profile_file(path)
                if current and current is not self._CORRUPT_PROFILES:
                    arrays = {**current, **arrays}
            keys = sorted(arrays)
            buffer = io.BytesIO()
            np.savez(
                buffer,
                keys=np.array([key.encode("utf-8") for key in keys], dtype=bytes),
                lengths=np.array([arrays[key].size for key in keys], dtype="<i8"),
                vectors=np.concatenate(
                    [np.empty(0, dtype="<f8")] + [arrays[key] for key in keys]
                ).astype("<f8", copy=False),
            )
            blob = buffer.getvalue()
            self.backend.write_bytes(path, blob)
            self._count("writes", "profiles")
            self._count("write_bytes", "profiles", len(blob))
            self._touch(path)

    def _touch(self, path: str) -> None:
        """Stamp a profile group's mtime — its LRU clock — with the
        store's clock; best-effort, like all LRU bookkeeping."""
        try:
            self.backend.touch(path, _now())
        except OSError:
            pass

    def delete_profiles(self, base_fingerprint: str) -> None:
        """Drop one base table's cached profile group."""
        self._remove(self._profile_path(base_fingerprint))

    def _profile_inventory(self) -> list:
        """``[(touched, base_fingerprint, bytes)]`` for every profile
        group: a listing of each shard directory, then one size and one
        mtime per group file."""
        profiles_dir = self._profiles_dir()
        inventory = []
        if not self.backend.isdir(profiles_dir):
            return inventory
        for name in sorted(self.backend.listdir(profiles_dir)):
            shard_dir = os.path.join(profiles_dir, name)
            if not self.backend.isdir(shard_dir):
                continue
            for entry in sorted(self.backend.listdir(shard_dir)):
                if not entry.endswith(".npz"):
                    continue
                path = os.path.join(shard_dir, entry)
                try:
                    touched = self.backend.mtime(path)
                    size = self.backend.size(path)
                except OSError:
                    # Deleted between the listing and the stat (a
                    # concurrent eviction): the group is gone — skip it
                    # rather than inventory a ghost (or crash the caller).
                    continue
                inventory.append((touched, entry[: -len(".npz")], size))
        return inventory

    def list_profile_groups(self) -> list:
        return sorted({group for _t, group, _s in self._profile_inventory()})

    def profile_bytes(self) -> int:
        """Total on-disk size of the cached-profile section."""
        return sum(size for _t, _fp, size in self._profile_inventory())

    def evict_profiles(self, budget_bytes: int):
        """Evict least-recently-touched profile groups until the section
        fits ``budget_bytes``.  Returns ``(evicted_groups, freed_bytes)``."""
        _byte_budget("budget_bytes", budget_bytes)
        inventory = self._profile_inventory()
        total = sum(size for _t, _fp, size in inventory)
        evicted = 0
        freed = 0
        for _touched, group, size in sorted(inventory):
            if total <= budget_bytes:
                break
            self.delete_profiles(group)
            total -= size
            freed += size
            evicted += 1
        return evicted, freed

    # ------------------------------------------------------------------
    # Auxiliary metadata
    # ------------------------------------------------------------------
    def read_aux(self, name: str):
        """Auxiliary JSON metadata stored alongside the catalog (e.g. the
        CLI's corpus-generation parameters), or ``None`` if absent or
        unreadable."""
        try:
            return json.loads(
                self.backend.read_bytes(
                    os.path.join(self.root, name)
                ).decode("utf-8")
            )
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    def write_aux(self, name: str, payload) -> None:
        """Atomically persist auxiliary JSON metadata in the store root."""
        self.backend.makedirs(self.root)
        self._write_json(os.path.join(self.root, name), payload)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def verify(self) -> dict:
        """Deep integrity check of every artifact.

        Decodes every stored object, loads every profile group and
        parses the root manifest — the post-condition multi-writer and
        crash tests assert on.  Returns ``{"objects": n,
        "profile_groups": n, "problems": [...]}``; an intact store
        reports no problems."""
        problems = []
        try:
            self.read_manifest()
        except CatalogStoreError as error:
            problems.append(f"root manifest: {error}")
        objects = self.list_objects()
        for fingerprint in objects:
            # Decoded directly, not through read_object: an integrity
            # pass is not a read as far as the store's counters go.
            path = self._object_path(fingerprint)
            try:
                CODEC.decode(self.backend.read_bytes(path))
            except FileNotFoundError:
                continue  # deleted since the listing: gone, not damaged
            except CatalogStoreError as error:
                problems.append(f"object {fingerprint!r} at {path!r}: {error}")
        groups = self.list_profile_groups()
        for group in groups:
            loaded = self._read_profile_file(self._profile_path(group))
            if loaded is self._CORRUPT_PROFILES:
                problems.append(f"profile group {group!r}: corrupt archive")
        return {
            "objects": len(objects),
            "profile_groups": len(groups),
            "problems": problems,
        }

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counts and on-disk footprint of the store."""
        manifest = self.read_manifest() or {"config": {}, "tables": {}}
        n_profiles = 0
        groups = self.list_profile_groups()
        for group in groups:
            # Count keys off the ``keys`` member alone — stats must not
            # load every cached vector.
            try:
                with self.backend.open_read(self._profile_path(group)) as handle:
                    with np.load(handle) as payload:
                        n_profiles += len(payload["keys"])
            except Exception:
                continue
        return {
            "version": manifest.get("version", VERSION),
            "tables": len(manifest["tables"]),
            "objects": len(self.list_objects()),
            "profile_groups": len(groups),
            "profile_entries": n_profiles,
            "profile_bytes": self.profile_bytes(),
            "leases": len(self.leases.active(reap=False)),
            "disk_bytes": self.backend.disk_bytes(),
            "config": manifest["config"],
        }


