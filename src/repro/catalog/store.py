"""Sharded, size-budgeted on-disk store backing the persistent catalog.

Layout under the store root (layout version 2)::

    manifest.json               catalog config + {table name: fingerprint}
    objects/ab/<fp>.bin         per-table derived artifacts (distinct sets,
                                MinHash signatures, metadata), addressed by
                                the fingerprint of the source table and
                                sharded by a 2-hex-digit hash prefix
    objects/ab/manifest.json    per-shard object index ({fp: codec version})
    profiles/cd/<fp>.npz        cached profile vectors, grouped by the
                                fingerprint of the base (query) table
    profiles/cd/manifest.json   per-shard LRU bookkeeping ({fp: bytes, touched})
    snapshot.npz                packed signature matrix for warm starts

Sharding keeps every directory and every manifest bounded: a store with
10⁵ tables spreads them over 256 object shards, so directory scans,
manifest rewrites, and atomic-rename pressure stay flat as the catalog
grows.  Version-1 stores (flat ``objects/<fp>.json``) are read through
transparently and can be rewritten in place with :meth:`CatalogStore.migrate`.

Objects are immutable once written — a changed table gets a new
fingerprint and therefore a new object — so incremental updates never
rewrite artifacts of unchanged tables.  ``gc`` reclaims objects no live
table references.

Column entries are serialized by a versioned :class:`Codec`.  The current
default is the packed :class:`BinaryCodec` (struct-packed value sets +
raw little-endian signatures, several times smaller than JSON); the
legacy :class:`JsonCodec` stays registered so version-1 artifacts remain
readable forever.

Cached profile groups are the one store section that can grow without
bound (every new base table adds a group), so they carry an LRU eviction
policy: each group's byte size and last-touch time live in its shard
manifest, and ``profile_budget_bytes`` (enforced after every write, or on
demand via :meth:`evict_profiles` / ``repro catalog gc``) drops the
least-recently-used groups until the total fits the budget.

Mutations are concurrency-safe across threads *and* processes: every
shard-manifest update runs under a per-shard advisory file lock
(``<shard>/.lock``) and follows an append-then-atomic-rename protocol —
the delta (one or more records, appended as a single atomic ``O_APPEND``
write, so multi-record updates can never tear apart) is first appended
to ``<shard>/manifest.log``, then compacted into a freshly renamed
``manifest.json`` and the log cleared.  Readers replay the log over the
base manifest, so a writer that dies between append and rename leaves a
store that still reads back every completed update; the next writer
finishes the compaction.

Deletions are first-class and follow the same protocol through a
per-shard *tombstone log* (the ``tombstones`` section of the shard
manifest): :meth:`delete_object` first appends ``{del objects, set
tombstone}`` as one atomic record pair — the deletion intent is durable
before any file disappears, and either prefix of the pair still reads
consistent — then removes the data files under the shard lock, then
compacts.  A deleter killed mid-protocol leaves a
store that still verifies: the tombstone records what was meant to go,
and :meth:`sweep_tombstones` (run by :meth:`gc`, or any later writer's
compaction) finishes the removal.  :meth:`write_object` clears any
tombstone for its fingerprint in the same atomic append that records
the object, so concurrent ``build``/``update``/``gc`` processes can add
*and* remove in any interleaving without resurrecting deleted objects
or dropping live ones — the shard lock linearizes file + manifest
transitions per shard.  Tombstones are bookkeeping, not a read barrier:
compaction prunes entries older than ``tombstone_ttl`` so the section
stays bounded.

Data files stay safe: objects are content-addressed and immutable, and
every file lands via a unique temp file + rename (object file writes
and removals additionally run under the shard lock, so a delete can
never interleave between a concurrent writer's data file landing and
its manifest record).

All physical I/O goes through a pluggable :class:`StoreBackend`
(:mod:`repro.catalog.backend`): the default local-FS backend reproduces
the historical layout byte-for-byte, while the ``segments`` backend
packs the same virtual paths into immutable append-only segment files
whose sealed state can be replicated read-only to other roots.

Writers own their in-flight objects through time-bounded, fencing-token
**leases** (:mod:`repro.catalog.leases`), under one ownership protocol:

* *Objects you write are stamped at write time* — ``write_object``
  records the writer's token on the object record.
* *Objects you adopt are claimed once, at save, then verified* — a warm
  start that finds an object already on disk writes nothing;
  :meth:`CatalogStore.claim_objects`, called by ``Catalog.save()``
  before the manifest starts referencing them, publishes their ids as
  the ``claims`` list of the writer's lease file (one atomic write) and
  then checks each under its shard lock, reporting the ones that are
  gone so the caller re-derives them.
* *A process that never saves never writes* — it holds no lease, and an
  object that vanishes under it is recomputed from the live table on
  first read.

:meth:`CatalogStore.gc` skips any unreferenced object whose token
belongs to, or whose id is claimed by, a live lease — then re-checks
liveness under the shard lock via the caller's ``live_check`` — closing
the race where a gc scan reclaims an object a concurrent builder wrote
(or adopted) after the scan but before its save landed.  Claim-then-
verify is safe because gc's ``[read claims → delete]`` and the
claimer's existence check run under the same shard lock and the claim
is durable *before* the claimer takes it: either gc went first (the
object is reported missing and re-derived, stamped with the claimer's
own token) or it comes later and sees the claim — the manifest never
points at nothing.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import threading
import time
import zlib

import numpy as np

from repro.catalog.backend import CatalogStoreError, backend_for
from repro.catalog.fingerprint import shard_of
from repro.catalog.leases import DEFAULT_LEASE_TTL, LeaseManager
from repro.discovery.index import ColumnEntry

VERSION = 2
#: Layout versions this code can read (writes always use :data:`VERSION`).
READABLE_VERSIONS = frozenset({1, VERSION})

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
        "manifest_replays": registry.counter(
            "repro_store_manifest_replays_total",
            "Shard manifest delta logs replayed by readers.",
        ),
        "tombstone_sweeps": registry.counter(
            "repro_store_tombstone_sweeps_total",
            "Tombstone sweep passes over the object shards.",
        ),
        "tombstones_swept": registry.counter(
            "repro_store_tombstones_swept_total",
            "Orphaned data files removed by tombstone sweeps.",
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


# ----------------------------------------------------------------------
# Column-entry codecs
# ----------------------------------------------------------------------
class Codec:
    """Versioned (de)serializer for one table object.

    A codec turns ``(meta, {column: ColumnEntry})`` into bytes and back.
    ``version`` is stable forever: a store may hold objects written by
    any registered codec, and the reader picks the codec from the file
    (extension + self-describing header), so new codec versions never
    orphan old artifacts.  Decoders raise :class:`CatalogStoreError` on
    any malformed input — truncated, garbled, or wrong-typed — and never
    return partially-decoded entries.
    """

    version: int
    extension: str
    #: Whether readers should hand this codec a memory-mapped buffer
    #: (``StoreBackend.open_mmap``) instead of an in-memory blob copy.
    mmap = False

    def encode(self, meta: dict, entries: dict) -> bytes:
        raise NotImplementedError

    def decode(self, blob: bytes):
        """``(meta, {column: ColumnEntry})`` from :meth:`encode` output."""
        raise NotImplementedError

    def decode_meta(self, blob: bytes) -> dict:
        """Just the ``meta`` dict (cheap for codecs with a meta header)."""
        return self.decode(blob)[0]

    def check(self, blob) -> None:
        """Deep integrity check (:meth:`CatalogStore.verify`); codecs
        with checksums validate them here, on top of a full decode."""
        self.decode(blob)


def _derived_normalized(distinct) -> frozenset:
    return frozenset(v.strip().lower() for v in distinct)


class JsonCodec(Codec):
    """The version-1 JSON object format (legacy; still fully readable).

    Byte-compatible with the flat-layout writer of layout version 1, so
    migration tests (and any external tooling) can reproduce v1 stores
    exactly.
    """

    version = 1
    extension = ".json"

    def encode(self, meta: dict, entries: dict) -> bytes:
        payload = {
            "meta": dict(meta),
            "columns": {
                column: {
                    "distinct": sorted(entry.distinct),
                    "normalized": sorted(entry.normalized),
                    "signature": [int(x) for x in entry.signature.tolist()],
                }
                for column, entry in entries.items()
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")

    def decode(self, blob: bytes):
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CatalogStoreError(f"corrupt JSON object: {error}") from error
        try:
            entries = {}
            for column, data in payload["columns"].items():
                distinct = frozenset(data["distinct"])
                if "normalized" in data:
                    normalized = frozenset(data["normalized"])
                else:
                    normalized = _derived_normalized(distinct)
                entries[column] = ColumnEntry(
                    distinct=distinct,
                    normalized=normalized,
                    signature=np.array(data["signature"], dtype=np.uint64),
                )
            return payload["meta"], entries
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as error:
            # ValueError/OverflowError: JSON-valid but wrong-typed
            # signature data (np.array with dtype=uint64 rejects it).
            raise CatalogStoreError(f"corrupt JSON object: {error!r}") from error


class _Cursor:
    """Bounds-checked reader over a binary object blob."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.blob):
            raise CatalogStoreError(
                f"truncated binary object: wanted {n} bytes at offset "
                f"{self.pos}, have {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as error:
            raise CatalogStoreError(
                f"garbled binary object: invalid UTF-8 at offset {self.pos}"
            ) from error


class BinaryCodec(Codec):
    """Packed + deflated binary object format (layout version 2's default).

    Little-endian throughout::

        magic b"RCAT" | u16 codec version
        u32 meta length | meta JSON (utf-8, uncompressed → cheap meta reads)
        u8 body compression (0 = raw, 1 = zlib) | u32 stored body length
        body (zlib-deflated column section):
            u32 column count
            per column (sorted by name):
                u16 name length | name utf-8
                u32 num_perm | num_perm * u64 signature
                u8 flags (bit 0: explicit normalized block follows distinct)
                string-set block (distinct)
                [string-set block (normalized), only if flag bit 0]

        string-set block: u32 count | u32 blob length
                          | count * u32 value lengths | utf-8 value blob

    The dominant JSON costs disappear: signatures are raw 8-byte words
    instead of ~25 characters of decimal + indentation each, values are
    stored once (the normalized set is re-derived on decode whenever it
    equals ``strip().lower()`` of the distinct set, which is how every
    entry the index computes looks), and the packed column section is
    deflated — sorted value blobs share long prefixes, so zlib roughly
    halves it again.  Encoding is canonical — values sorted, meta JSON
    with sorted keys, fixed compression level — so equal objects encode
    byte-identically.
    """

    version = 2
    extension = ".bin"

    MAGIC = b"RCAT"
    _EXPLICIT_NORMALIZED = 1
    _BODY_RAW = 0
    _BODY_ZLIB = 1
    _ZLIB_LEVEL = 6

    def encode(self, meta: dict, entries: dict) -> bytes:
        body = bytearray()
        body += struct.pack("<I", len(entries))
        for column in sorted(entries):
            entry = entries[column]
            name = column.encode("utf-8")
            if len(name) > 0xFFFF:
                raise CatalogStoreError(
                    f"column name {column[:40]!r}… is {len(name)} UTF-8 "
                    "bytes, beyond the binary codec's 64KiB name field"
                )
            body += struct.pack("<H", len(name))
            body += name
            signature = np.ascontiguousarray(entry.signature, dtype="<u8")
            body += struct.pack("<I", signature.size)
            body += signature.tobytes()
            derived = entry.normalized == _derived_normalized(entry.distinct)
            body += struct.pack("<B", 0 if derived else self._EXPLICIT_NORMALIZED)
            body += self._pack_strings(entry.distinct)
            if not derived:
                body += self._pack_strings(entry.normalized)
        deflated = zlib.compress(bytes(body), self._ZLIB_LEVEL)
        if len(deflated) < len(body):
            compression, stored = self._BODY_ZLIB, deflated
        else:
            compression, stored = self._BODY_RAW, bytes(body)
        out = bytearray()
        out += self.MAGIC
        out += struct.pack("<H", self.version)
        meta_blob = json.dumps(dict(meta), sort_keys=True).encode("utf-8")
        out += struct.pack("<I", len(meta_blob))
        out += meta_blob
        out += struct.pack("<BI", compression, len(stored))
        out += stored
        return bytes(out)

    @staticmethod
    def _pack_strings(values) -> bytes:
        encoded = [value.encode("utf-8") for value in sorted(values)]
        lengths = np.array([len(e) for e in encoded], dtype="<u4")
        blob = b"".join(encoded)
        return (
            struct.pack("<II", len(encoded), len(blob))
            + lengths.tobytes()
            + blob
        )

    @staticmethod
    def _unpack_strings(cursor: _Cursor) -> frozenset:
        count, blob_len = cursor.unpack("<II")
        lengths = np.frombuffer(cursor.take(4 * count), dtype="<u4")
        if int(lengths.sum()) != blob_len:
            raise CatalogStoreError(
                "garbled binary object: string lengths disagree with blob size"
            )
        blob = cursor.take(blob_len)
        values = []
        offset = 0
        for length in lengths.tolist():
            piece = blob[offset : offset + length]
            offset += length
            try:
                values.append(piece.decode("utf-8"))
            except UnicodeDecodeError as error:
                raise CatalogStoreError(
                    "garbled binary object: invalid UTF-8 value"
                ) from error
        return frozenset(values)

    def _header(self, blob: bytes) -> _Cursor:
        cursor = _Cursor(blob)
        if cursor.take(len(self.MAGIC)) != self.MAGIC:
            raise CatalogStoreError("not a binary catalog object (bad magic)")
        (version,) = cursor.unpack("<H")
        if version != self.version:
            raise CatalogStoreError(
                f"binary object codec version {version}, expected {self.version}"
            )
        return cursor

    def _meta(self, cursor: _Cursor) -> dict:
        (meta_len,) = cursor.unpack("<I")
        try:
            meta = json.loads(cursor.text(meta_len))
        except json.JSONDecodeError as error:
            raise CatalogStoreError(
                f"garbled binary object: bad meta block: {error}"
            ) from error
        if not isinstance(meta, dict):
            raise CatalogStoreError("garbled binary object: meta is not a dict")
        return meta

    def decode_meta(self, blob: bytes) -> dict:
        return self._meta(self._header(blob))

    def decode(self, blob: bytes):
        outer = self._header(blob)
        meta = self._meta(outer)
        compression, stored_len = outer.unpack("<BI")
        stored = outer.take(stored_len)
        if outer.pos != len(blob):
            raise CatalogStoreError(
                f"garbled binary object: {len(blob) - outer.pos} trailing bytes"
            )
        if compression == self._BODY_ZLIB:
            try:
                body = zlib.decompress(stored)
            except zlib.error as error:
                raise CatalogStoreError(
                    f"garbled binary object: bad deflate body: {error}"
                ) from error
        elif compression == self._BODY_RAW:
            body = stored
        else:
            raise CatalogStoreError(
                f"garbled binary object: unknown body compression {compression}"
            )
        cursor = _Cursor(body)
        (n_columns,) = cursor.unpack("<I")
        entries = {}
        for _ in range(n_columns):
            (name_len,) = cursor.unpack("<H")
            column = cursor.text(name_len)
            (num_perm,) = cursor.unpack("<I")
            signature = np.frombuffer(
                cursor.take(8 * num_perm), dtype="<u8"
            ).astype(np.uint64)
            (flags,) = cursor.unpack("<B")
            distinct = self._unpack_strings(cursor)
            if flags & self._EXPLICIT_NORMALIZED:
                normalized = self._unpack_strings(cursor)
            else:
                normalized = _derived_normalized(distinct)
            entries[column] = ColumnEntry(
                distinct=distinct, normalized=normalized, signature=signature
            )
        if cursor.pos != len(body):
            raise CatalogStoreError(
                f"garbled binary object: {len(body) - cursor.pos} trailing "
                "bytes in column section"
            )
        return meta, entries


class MmapCodec(Codec):
    """Fixed-layout uncompressed object format built for memory mapping
    (codec version 3, opt-in via ``CatalogStore(object_codec=3)``).

    Little-endian, every multi-byte field naturally aligned::

        header (16 bytes):
            magic b"RCM3" | u16 codec version | u16 reserved (0)
            u32 meta length | u32 column count
        meta JSON (utf-8), zero-padded to 8 bytes
        directory: column count * u64 — absolute offset of each column
            block, in sorted column-name order
        column blocks, each starting 8-aligned:
            u32 name length | u32 num_perm
            u32 flags (bit 0: explicit normalized block) | u32 reserved
            num_perm * u64 signature   (8-aligned by construction)
            name utf-8
            string-set block (distinct)
            [string-set block (normalized), only if flag bit 0]
            zero padding to 8 bytes
        footer (8 bytes): u32 crc32 of everything before the footer
            | magic b"3MCR"

        string-set block: u32 count | u32 blob length
                          | count * u32 value lengths | utf-8 value blob

    Signatures decode as ``np.frombuffer`` views straight into the
    buffer — when the buffer is a :meth:`StoreBackend.open_mmap` view,
    no byte of signature data is ever copied, and concurrent processes
    reading the same artifact share one set of physical pages.  The
    arrays hold a reference to the buffer, so the mapping lives exactly
    as long as something still looks at it.

    Decoding validates structure (magics, bounds, offsets monotone and
    aligned) but not the checksum — that would force a full read and
    defeat lazy paging.  :meth:`check` (the deep-``verify()`` hook)
    additionally recomputes the crc32, so bit rot that structural checks
    cannot see is still caught by an integrity pass.  Encoding is
    canonical (sorted columns, sorted meta keys, zero padding): equal
    objects encode byte-identically.
    """

    version = 3
    extension = ".mmap"
    mmap = True

    MAGIC = b"RCM3"
    FOOTER_MAGIC = b"3MCR"
    _EXPLICIT_NORMALIZED = 1

    @staticmethod
    def _pad8(out: bytearray) -> None:
        out += b"\x00" * (-len(out) % 8)

    def encode(self, meta: dict, entries: dict) -> bytes:
        columns = sorted(entries)
        meta_blob = json.dumps(dict(meta), sort_keys=True).encode("utf-8")
        out = bytearray()
        out += self.MAGIC
        out += struct.pack("<HH", self.version, 0)
        out += struct.pack("<II", len(meta_blob), len(columns))
        out += meta_blob
        self._pad8(out)
        directory_at = len(out)
        out += b"\x00" * (8 * len(columns))
        offsets = []
        for column in columns:
            entry = entries[column]
            self._pad8(out)
            offsets.append(len(out))
            name = column.encode("utf-8")
            signature = np.ascontiguousarray(entry.signature, dtype="<u8")
            derived = entry.normalized == _derived_normalized(entry.distinct)
            out += struct.pack(
                "<IIII",
                len(name),
                signature.size,
                0 if derived else self._EXPLICIT_NORMALIZED,
                0,
            )
            out += signature.tobytes()
            out += name
            out += BinaryCodec._pack_strings(entry.distinct)
            if not derived:
                out += BinaryCodec._pack_strings(entry.normalized)
        self._pad8(out)
        out[directory_at : directory_at + 8 * len(columns)] = np.array(
            offsets, dtype="<u8"
        ).tobytes()
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        out += self.FOOTER_MAGIC
        return bytes(out)

    # -- decoding ------------------------------------------------------
    @staticmethod
    def _bad(detail: str) -> CatalogStoreError:
        return CatalogStoreError(f"garbled mmap object: {detail}")

    def _bounds(self, blob) -> int:
        """Validate outer framing; returns the footer offset."""
        if len(blob) < 24 or (len(blob) % 8) != 0:
            raise self._bad(f"implausible size {len(blob)}")
        if bytes(blob[:4]) != self.MAGIC:
            raise CatalogStoreError("not an mmap catalog object (bad magic)")
        version, _ = struct.unpack_from("<HH", blob, 4)
        if version != self.version:
            raise CatalogStoreError(
                f"mmap object codec version {version}, expected {self.version}"
            )
        if bytes(blob[-4:]) != self.FOOTER_MAGIC:
            raise self._bad("missing footer (truncated write?)")
        return len(blob) - 8

    def _strings(self, blob, offset: int, end: int):
        """Decode one string-set block; returns ``(frozenset, next offset)``."""
        if offset + 8 > end:
            raise self._bad("string block header out of bounds")
        count, blob_len = struct.unpack_from("<II", blob, offset)
        offset += 8
        if offset + 4 * count + blob_len > end:
            raise self._bad("string block data out of bounds")
        lengths = np.frombuffer(blob, dtype="<u4", count=count, offset=offset)
        offset += 4 * count
        if int(lengths.sum()) != blob_len:
            raise self._bad("string lengths disagree with blob size")
        try:
            data = bytes(blob[offset : offset + blob_len]).decode("utf-8")
        except UnicodeDecodeError as error:
            raise self._bad("invalid UTF-8 value") from error
        values = []
        at = 0
        # Lengths are UTF-8 byte counts; re-slice on the decoded text via
        # per-piece decode only when the blob is not pure ASCII.
        if len(data) == blob_len:
            for length in lengths.tolist():
                values.append(data[at : at + length])
                at += length
        else:
            raw = bytes(blob[offset : offset + blob_len])
            for length in lengths.tolist():
                values.append(raw[at : at + length].decode("utf-8"))
                at += length
        return frozenset(values), offset + blob_len

    def _header(self, blob):
        footer_at = self._bounds(blob)
        meta_len, n_columns = struct.unpack_from("<II", blob, 8)
        meta_end = 16 + meta_len
        if meta_end > footer_at:
            raise self._bad("meta block out of bounds")
        try:
            meta = json.loads(bytes(blob[16:meta_end]).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise self._bad(f"bad meta block: {error}") from error
        if not isinstance(meta, dict):
            raise self._bad("meta is not a dict")
        directory_at = meta_end + (-meta_end % 8)
        if directory_at + 8 * n_columns > footer_at:
            raise self._bad("column directory out of bounds")
        offsets = np.frombuffer(
            blob, dtype="<u8", count=n_columns, offset=directory_at
        )
        return meta, offsets, footer_at

    def decode_meta(self, blob) -> dict:
        return self._header(blob)[0]

    def decode(self, blob):
        meta, offsets, footer_at = self._header(blob)
        entries = {}
        for raw_offset in offsets.tolist():
            offset = int(raw_offset)
            if offset % 8 or offset + 16 > footer_at:
                raise self._bad(f"column block offset {offset} out of bounds")
            name_len, num_perm, flags, _ = struct.unpack_from(
                "<IIII", blob, offset
            )
            offset += 16
            if offset + 8 * num_perm + name_len > footer_at:
                raise self._bad("column block data out of bounds")
            # The zero-copy heart: a read-only uint64 view into the
            # (possibly memory-mapped) buffer, no astype, no tobytes.
            signature = np.frombuffer(
                blob, dtype="<u8", count=num_perm, offset=offset
            )
            offset += 8 * num_perm
            try:
                column = bytes(blob[offset : offset + name_len]).decode("utf-8")
            except UnicodeDecodeError as error:
                raise self._bad("invalid UTF-8 column name") from error
            offset += name_len
            distinct, offset = self._strings(blob, offset, footer_at)
            if flags & self._EXPLICIT_NORMALIZED:
                normalized, offset = self._strings(blob, offset, footer_at)
            else:
                normalized = _derived_normalized(distinct)
            if column in entries:
                raise self._bad(f"duplicate column {column!r}")
            entries[column] = ColumnEntry(
                distinct=distinct, normalized=normalized, signature=signature
            )
        return meta, entries

    def check(self, blob) -> None:
        footer_at = self._bounds(blob)
        (recorded,) = struct.unpack_from("<I", blob, footer_at)
        actual = zlib.crc32(bytes(blob[:footer_at]))
        if recorded != actual:
            raise self._bad(
                f"crc mismatch (recorded {recorded:#010x}, actual {actual:#010x})"
            )
        self.decode(blob)


#: Registered codecs by version; readers accept any, writers use the default.
CODECS = {
    codec.version: codec for codec in (JsonCodec(), BinaryCodec(), MmapCodec())
}
DEFAULT_CODEC = CODECS[2]

#: Shape of object fingerprints as the store addresses them: dash-joined
#: runs of at least 8 lowercase hex digits (the catalog writes
#: ``<16-hex config fp>-<32-hex table fp>``).  ``list_objects`` uses it
#: to tell layout-v1 flat objects from stray ``*.json`` files someone
#: dropped into the objects root.
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,}(?:-[0-9a-f]{8,})*$")


def _record_codec(value):
    """Codec version from an objects-section record (either the legacy
    plain-int form or the lease-stamped ``{"codec", "lease"}`` dict)."""
    if isinstance(value, dict):
        return value.get("codec")
    return value


def _record_lease(value):
    """Fencing token from an objects-section record, or ``None`` for
    records written without a lease."""
    if isinstance(value, dict):
        token = value.get("lease")
        return token if isinstance(token, int) else None
    return None


class CatalogStore:
    """Filesystem persistence for catalog artifacts.

    ``profile_budget_bytes`` caps the cached-profile section: when set,
    every :meth:`write_profiles` evicts least-recently-touched profile
    groups until the section fits the budget (the group just written is
    never evicted).  ``None`` disables enforcement (evict on demand with
    :meth:`evict_profiles`).  ``result_budget_bytes`` does the same for
    the persisted run-record section (:meth:`write_result` /
    :meth:`evict_results`).  ``tombstone_ttl`` bounds how long deletion
    tombstones survive before compaction prunes them (seconds), and
    ``clock_skew`` widens that horizon (and lease expiry) so writers
    with drifting clocks cannot prune each other's fresh state early.

    ``backend`` selects the physical representation (a name, a
    :class:`~repro.catalog.backend.StoreBackend` instance, or ``None``
    to auto-detect — see :func:`~repro.catalog.backend.backend_for`).
    ``lease_ttl`` is the write-ownership lease lifetime in seconds;
    ``None`` disables leases entirely, restoring the pre-lease gc
    behavior (kept for the regression demonstration of the liveness
    race, not for production use).
    """

    #: Per-shard delta journal (see the module docstring's protocol).
    LOG_NAME = "manifest.log"
    #: Advisory lock sidecar, one per locked directory.
    LOCK_NAME = ".lock"
    #: Default retention of deletion tombstones (seconds): long enough
    #: that any realistically concurrent writer has observed the
    #: deletion, short enough that the section never grows with the
    #: store's deletion history.
    TOMBSTONE_TTL = 7 * 24 * 3600.0

    def __init__(
        self,
        root: str,
        profile_budget_bytes: int = None,
        result_budget_bytes: int = None,
        tombstone_ttl: float = TOMBSTONE_TTL,
        clock_skew: float = 0.0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        backend=None,
        object_codec: int = None,
    ):
        self.root = str(root)
        self.backend = backend_for(self.root, backend)
        #: Codec new object writes use (reads accept every registered
        #: codec regardless).  ``None`` keeps the historical default —
        #: existing stores stay byte-identical; ``3`` opts into the
        #: mmap-friendly fixed layout.
        if object_codec is None:
            self.codec = DEFAULT_CODEC
        elif object_codec in CODECS:
            self.codec = CODECS[object_codec]
        else:
            raise ValueError(
                f"unknown object_codec {object_codec!r}; "
                f"registered: {sorted(CODECS)}"
            )
        self.profile_budget_bytes = profile_budget_bytes
        self.result_budget_bytes = result_budget_bytes
        self.tombstone_ttl = float(tombstone_ttl)
        self.clock_skew = float(clock_skew)
        self.lease_ttl = None if lease_ttl is None else float(lease_ttl)
        #: Write-ownership leases (``None`` when disabled): gc consults
        #: the active set before reclaiming anything unreferenced.
        self.leases = (
            None
            if self.lease_ttl is None
            else LeaseManager(
                self.backend,
                self.root,
                ttl=self.lease_ttl,
                clock_skew=self.clock_skew,
                clock=lambda: _now(),
            )
        )
        self._writer_lease = None
        self._writer_lease_guard = threading.Lock()
        #: Breakdown of the most recent :meth:`gc` pass on this instance
        #: (``removed`` / ``skipped_leased`` / ``skipped_live``).
        self.last_gc = {"removed": 0, "skipped_leased": 0, "skipped_live": 0}
        #: Test seam: a callable invoked with a protocol point name
        #: (``"shard-log-appended"``, ``"shard-manifest-compacted"``,
        #: ``"object-files-removed"``) at the matching moment of every
        #: shard-manifest update, and with ``"claims-published"`` between
        #: :meth:`claim_objects`' lease write and its first existence
        #: check.  Fault tests raise (or ``os._exit``)
        #: from it to kill a writer mid-protocol; ``None`` (the default)
        #: is free.
        self.fault_hook = None
        #: Metric family handles (see :meth:`attach_metrics`); ``None``
        #: keeps every instrumentation site free.
        self.obs = None

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def attach_metrics(self, registry) -> "CatalogStore":
        """Record store activity (reads/writes/bytes, lock waits,
        manifest replays, tombstone sweeps) on ``registry``.  Families
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
        return head if head in ("objects", "profiles", "results") else "other"

    def _dir_lock(self, directory: str):
        """Advisory file lock guarding one directory's manifest (wait
        time lands in the lock-wait histogram when metrics are on)."""
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

    def _object_path(self, fingerprint: str, codec: Codec = DEFAULT_CODEC) -> str:
        """Sharded path of one object under ``codec`` (the default codec's
        path is where new writes land)."""
        return os.path.join(
            self._object_shard_dir(fingerprint), f"{fingerprint}{codec.extension}"
        )

    def _legacy_object_path(self, fingerprint: str) -> str:
        """Layout-v1 flat path (read-through only; never written)."""
        return os.path.join(self._objects_dir(), f"{fingerprint}.json")

    def _profiles_dir(self) -> str:
        return os.path.join(self.root, "profiles")

    def _profile_shard_dir(self, base_fingerprint: str) -> str:
        return os.path.join(self._profiles_dir(), shard_of(base_fingerprint))

    def _profile_path(self, base_fingerprint: str) -> str:
        return os.path.join(
            self._profile_shard_dir(base_fingerprint), f"{base_fingerprint}.npz"
        )

    def _legacy_profile_path(self, base_fingerprint: str) -> str:
        return os.path.join(self._profiles_dir(), f"{base_fingerprint}.json")

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

        Accepts every readable layout version (a v1 manifest opens
        transparently; the next :meth:`write_manifest` upgrades it)."""
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
        if version not in READABLE_VERSIONS:
            raise CatalogStoreError(
                f"catalog at {self.root!r} has version "
                f"{version!r}, expected one of {sorted(READABLE_VERSIONS)}"
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
    # Per-shard manifests (advisory indexes; the directory is the truth)
    # ------------------------------------------------------------------
    def _shard_log_path(self, shard_dir: str) -> str:
        return os.path.join(shard_dir, self.LOG_NAME)

    def _replay_shard_log(self, shard_dir: str, payload: dict) -> dict:
        """Apply the shard's delta journal over ``payload`` in place.

        Each log line is one ``{"section", "op", "key"[, "value"]}``
        record; malformed or torn lines (a writer killed mid-append, a
        partial tail after a crash) are skipped — every complete record
        still applies, which is exactly the crash guarantee."""
        try:
            data = self.backend.read_bytes(self._shard_log_path(shard_dir))
        except OSError:
            # No delta log: the overwhelmingly common case, not a replay.
            return payload
        if self.obs is not None:
            self.obs["manifest_replays"].inc()
        for line in data.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue
            if not isinstance(record, dict):
                continue
            section = record.get("section")
            key = record.get("key")
            if not isinstance(section, str) or not isinstance(key, str):
                continue
            entries = payload.get(section)
            if not isinstance(entries, dict):
                entries = {}
                payload[section] = entries
            op = record.get("op")
            if op == "set":
                entries[key] = record.get("value")
            elif op == "del":
                entries.pop(key, None)
        return payload

    def _read_shard_manifest(self, shard_dir: str) -> dict:
        """Shard manifest payload (base file + replayed delta log), or
        ``{}`` when absent or corrupt — a damaged shard manifest degrades
        to directory probing and is rebuilt by the next write, never
        trusted over the files."""
        try:
            payload = json.loads(
                self.backend.read_bytes(
                    os.path.join(shard_dir, "manifest.json")
                ).decode("utf-8")
            )
            if not isinstance(payload, dict):
                payload = {}
        except (
            FileNotFoundError,
            NotADirectoryError,
            json.JSONDecodeError,
            UnicodeDecodeError,
        ):
            payload = {}
        return self._replay_shard_log(shard_dir, payload)

    def _read_shard_section(self, shard_dir: str, section: str) -> dict:
        """One section of a shard manifest, guaranteed to be a dict — a
        JSON-valid but wrong-typed section is corruption and degrades to
        empty exactly like a missing manifest."""
        value = self._read_shard_manifest(shard_dir).get(section)
        return value if isinstance(value, dict) else {}

    def _update_shard_manifest(
        self, shard_dir: str, section: str, op: str, key: str, value=None
    ) -> None:
        """Durably apply one ``set``/``del`` to a shard manifest section
        (single-record form of :meth:`_apply_shard_ops`)."""
        self._apply_shard_ops(shard_dir, [(section, op, key, value)])

    def _apply_shard_ops(self, shard_dir: str, ops, between=None) -> None:
        """Durably apply ``ops`` (``(section, op, key, value)`` tuples)
        to one shard manifest as a unit.

        Append-then-atomic-rename under the shard's advisory file lock:
        all deltas are appended to ``manifest.log`` first (a *single*
        ``O_APPEND`` write, so a multi-record update — e.g. ``{record
        object, clear tombstone}`` — is visible to readers atomically
        and survives a writer that dies before compaction), then the
        full log is compacted into a freshly renamed ``manifest.json``
        and cleared.  ``between``, when given, runs after the append and
        before compaction, still under the lock — the deletion protocol
        removes data files there, so the logged intent is durable before
        any file disappears.  The lock serializes concurrent
        read-modify-writes, so updates from different threads or
        processes cannot drop each other.  Best-effort like all manifest
        bookkeeping: an ``OSError`` leaves the directory itself as the
        source of truth."""
        lines = bytearray()
        for section, op, key, value in ops:
            record = {"section": section, "op": op, "key": key}
            if op == "set":
                record["value"] = value
            lines += (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.backend.makedirs(shard_dir)
            with self._dir_lock(shard_dir):
                self.backend.append_bytes(
                    self._shard_log_path(shard_dir), bytes(lines)
                )
                self._fault("shard-log-appended")
                if between is not None:
                    between()
                payload = self._read_shard_manifest(shard_dir)
                self._prune_tombstones(payload)
                self._write_json(
                    os.path.join(shard_dir, "manifest.json"), payload
                )
                self._fault("shard-manifest-compacted")
                self._remove(self._shard_log_path(shard_dir))
        except OSError:
            pass

    def _prune_tombstones(self, payload: dict) -> None:
        """Drop expired (or malformed) tombstones from a manifest payload
        about to be compacted — pruning happens only on the write path,
        so readers never mutate what they replay.

        Expiry is judged by *clamped age*: a tombstone stamped by a
        writer whose clock runs ahead of ours has a negative age, which
        must read as "fresh" — never as instantly prunable — and the
        per-store ``clock_skew`` widens the horizon so a pruner with a
        fast clock cannot drop another writer's tombstone early."""
        tombstones = payload.get("tombstones")
        if not isinstance(tombstones, dict):
            if tombstones is not None:
                payload.pop("tombstones", None)
            return
        now = _now()
        horizon = self.tombstone_ttl + self.clock_skew

        def _expired(ts: float) -> bool:
            return max(0.0, now - float(ts)) > horizon

        for key in [
            key
            for key, info in tombstones.items()
            if not isinstance(info, dict)
            or not isinstance(info.get("ts"), (int, float))
            or _expired(info["ts"])
        ]:
            del tombstones[key]
        if not tombstones:
            payload.pop("tombstones", None)

    # ------------------------------------------------------------------
    # Shared LRU bookkeeping (profile groups and run records both keep
    # {bytes, touched} entries in their shard manifests)
    # ------------------------------------------------------------------
    def _touch_section_entry(
        self, shard_dir: str, section: str, key: str, path: str
    ) -> None:
        """Refresh one entry's LRU clock — pure bookkeeping, so any
        failure is swallowed (eviction falls back to file mtimes)."""
        try:
            info = self._read_shard_section(shard_dir, section).get(key)
            if isinstance(info, dict):
                info = dict(info)
            else:
                info = {"bytes": self._size(path)}
            info["touched"] = _now()
            self._update_shard_manifest(shard_dir, section, "set", key, info)
        except Exception:
            pass

    def _sharded_inventory(self, root_dir: str, section: str, suffix: str):
        """``([(touched, key, bytes)], seen keys)`` over one sharded
        store section.

        Walks shard by shard — one manifest parse per shard directory,
        not per entry — and heals stale bookkeeping from the filesystem
        (entries missing from their shard manifest get the file's
        mtime/size, so eviction still orders sensibly after a manifest
        loss)."""
        inventory = []
        seen = set()
        if not self.backend.isdir(root_dir):
            return inventory, seen
        for name in sorted(self.backend.listdir(root_dir)):
            shard_dir = os.path.join(root_dir, name)
            if not self.backend.isdir(shard_dir):
                continue
            recorded = self._read_shard_section(shard_dir, section)
            for entry in sorted(self.backend.listdir(shard_dir)):
                if not entry.endswith(suffix) or entry == "manifest.json":
                    continue
                key = entry[: -len(suffix)]
                path = os.path.join(shard_dir, entry)
                info = recorded.get(key)
                size = None
                if isinstance(info, dict) and isinstance(
                    info.get("touched"), (int, float)
                ):
                    touched = float(info["touched"])
                    if isinstance(info.get("bytes"), int):
                        size = info["bytes"]
                else:
                    try:
                        touched = self.backend.mtime(path)
                    except OSError:
                        # Deleted between the listing and the stat (a
                        # concurrent eviction or gc): the entry is gone,
                        # not merely unbookkept — skip it rather than
                        # inventory a ghost (or crash the caller).
                        if not self.backend.exists(path):
                            continue
                        touched = 0.0
                if size is None:
                    size = self._size(path)
                seen.add(key)
                inventory.append((touched, key, size))
        return inventory, seen

    @staticmethod
    def _evict_lru(inventory, budget_bytes: int, keep, delete):
        """Evict least-recently-touched entries until the section fits
        ``budget_bytes``; returns ``(evicted, freed_bytes)``."""
        total = sum(size for _t, _k, size in inventory)
        evicted = 0
        freed = 0
        for _touched, key, size in sorted(inventory):
            if total <= budget_bytes:
                break
            if key in keep:
                continue
            delete(key)
            total -= size
            freed += size
            evicted += 1
        return evicted, freed

    # ------------------------------------------------------------------
    # Table objects
    # ------------------------------------------------------------------
    def _object_candidates(self, fingerprint: str):
        """``(codec, path)`` pairs to try for one object, lazily.

        This store's write codec's sharded path comes first —
        ``write_object`` leaves exactly one representation there, so the
        common case (warm start probing thousands of objects) resolves
        on a single ``exists``/``open`` without touching any shard
        manifest.  Only when that misses (legacy, mid-migration, or a
        store reopened under a different ``object_codec``) is the shard
        manifest consulted for a recorded codec, then every other
        registered codec's sharded path, then the layout-v1 flat path —
        so a stale shard manifest degrades to probing instead of
        failing."""
        yield self.codec, self._object_path(fingerprint, self.codec)
        recorded = self._read_shard_section(
            self._object_shard_dir(fingerprint), "objects"
        )
        order = []
        version = _record_codec(recorded.get(fingerprint))
        if version in CODECS:
            order.append(CODECS[version])
        order.extend(
            codec for codec in CODECS.values() if codec is not self.codec
        )
        seen = {self._object_path(fingerprint, self.codec)}
        for codec in order:
            path = self._object_path(fingerprint, codec)
            if path not in seen:
                seen.add(path)
                yield codec, path
        yield CODECS[1], self._legacy_object_path(fingerprint)

    def has_object(self, fingerprint: str) -> bool:
        return any(
            self.backend.exists(path)
            for _codec, path in self._object_candidates(fingerprint)
        )

    # ------------------------------------------------------------------
    # Write-ownership leases
    # ------------------------------------------------------------------
    def writer_lease(self):
        """This store's current writer lease (acquired on first use,
        renewed once half its TTL has passed), or ``None`` when leases
        are disabled.  Object records stamp its fencing token so gc can
        tell in-flight work from garbage.

        The guard only protects the ``_writer_lease`` slot; the lease
        *file* work — ``acquire()``/``renew()`` take the store-wide
        lease lock and write through the backend — runs outside it, so
        a slow disk (or contended lease lock) never stalls every other
        thread's ``writer_lease()`` behind an in-process mutex.  Two
        threads racing the cold path may both acquire; the loser's
        surplus lease is released immediately and both return the
        published one.
        """
        if self.leases is None:
            return None
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
                # stamp carries the same owner and token — keep theirs.
                published = current
        if surplus is not None:
            self.leases.release(surplus)
        return published

    def release_writer_lease(self) -> None:
        """Give up write ownership, stamps and claims together — called
        once the writer's references are durably published
        (:meth:`Catalog.save`), after which its objects are protected by
        the manifest, not the lease."""
        with self._writer_lease_guard:
            lease, self._writer_lease = self._writer_lease, None
        if lease is not None and self.leases is not None:
            self.leases.release(lease)

    def claim_objects(self, fingerprints) -> list:
        """Take ownership of *existing* objects this writer is about to
        reference (warm-start hits on content some earlier writer
        persisted); returns the ids that are gone — the caller
        re-derives those, and :meth:`write_object` stamps them.

        Claim, then verify: the ids are first published as the
        ``claims`` of this writer's lease file (one atomic write, merged
        with what the lease already claims), and only then is each
        checked — present and not tombstoned — under its shard lock,
        one lock and one manifest read per shard.  :meth:`gc` reads the
        claims under that same lock before deleting, so either it went
        first (the id comes back missing) or it sees the claim and
        spares the object until :meth:`release_writer_lease`.  With
        leases disabled nothing is published; the check still runs."""
        wanted = set(fingerprints)
        if not wanted:
            return []
        if self.leases is not None:
            lease = self.writer_lease()
            claimed = self.leases.renew(lease, claims=lease.claims | wanted)
            if self.obs is not None:
                self.obs["lease_renewals"].inc()
            with self._writer_lease_guard:
                held = self._writer_lease
                # Same lease, whichever thread stamped it last: the slot
                # must carry the claims so the next renewal keeps them.
                if held is not None and held.token == claimed.token:
                    self._writer_lease = claimed
        self._fault("claims-published")
        by_shard = {}
        for fingerprint in sorted(wanted):
            by_shard.setdefault(
                self._object_shard_dir(fingerprint), []
            ).append(fingerprint)
        missing = []
        for shard_dir, group in by_shard.items():
            with self._dir_lock(shard_dir):
                tombstones = self._read_shard_section(shard_dir, "tombstones")
                missing.extend(
                    fingerprint
                    for fingerprint in group
                    if fingerprint in tombstones
                    or not self.has_object(fingerprint)
                )
        return missing

    def write_object(
        self, fingerprint: str, meta: dict, entries: dict, overwrite: bool = False
    ) -> None:
        """Persist one table's derived artifacts (no-op if present:
        objects are content-addressed, so equal fingerprint ⇒ equal
        content).  ``overwrite`` forces the write — used when healing a
        corrupt file with freshly recomputed content.

        A tombstoned fingerprint is treated as absent even when a
        crashed deleter left its file behind: the write proceeds and
        clears the tombstone in the same atomic log append that records
        the object, so a re-add after a half-finished deletion can never
        be reaped by a later :meth:`sweep_tombstones`.  The data file
        lands under the shard lock, linearizing the write against any
        concurrent :meth:`delete_object` in the shard."""
        if (
            not overwrite
            and self.has_object(fingerprint)
            and not self.claim_objects([fingerprint])
        ):
            # Present already, and now claimed: this writer is about to
            # depend on it, so it owns it exactly as if it had written
            # it.  (Gone or tombstoned under the lock: write it.)
            return
        # With leases enabled the record carries the writer's fencing
        # token; without, it stays the historical plain codec version
        # (keeping lease-free stores byte-identical).
        lease = self.writer_lease()
        record = (
            self.codec.version
            if lease is None
            else {"codec": self.codec.version, "lease": lease.token}
        )
        path = self._object_path(fingerprint, self.codec)
        shard_dir = os.path.dirname(path)
        self.backend.makedirs(shard_dir)
        blob = self.codec.encode(meta, entries)
        with self._dir_lock(shard_dir):
            self.backend.write_bytes(path, blob)
            self._count("writes", "objects")
            self._count("write_bytes", "objects", len(blob))
            # Tombstone clear *before* the object record: both land in
            # one append, but if the filesystem tears it, every prefix
            # is still consistent (a cleared tombstone with the object
            # not yet recorded reads as a plain unlisted file; the
            # reverse order could leave a fingerprint both recorded
            # live and tombstoned).
            self._apply_shard_ops(
                shard_dir,
                [
                    ("tombstones", "del", fingerprint, None),
                    ("objects", "set", fingerprint, record),
                ],
            )
            # Drop superseded representations (other codecs, the v1 flat
            # file) so a heal can never resurrect stale content later.
            for codec in CODECS.values():
                if codec is not self.codec:
                    self._remove(self._object_path(fingerprint, codec))
            self._remove(self._legacy_object_path(fingerprint))

    def _read_artifact(self, codec: Codec, path: str):
        """One object representation as the bytes-like its codec wants:
        a memory-mapped view for mmap codecs, an in-memory blob
        otherwise.  Called lock-free by design — a page fault on mapped
        artifact data is disk I/O and must never happen under a store
        lock."""
        if codec.mmap:
            return self.backend.open_mmap(path)
        return self.backend.read_bytes(path)

    def _decode_candidates(self, fingerprint: str, decoder):
        """Run ``decoder(codec, blob)`` over the object's representations
        until one succeeds.

        A representation that exists but fails to decode does not abort
        the read: the next candidate is tried, so a torn v3 artifact
        left by a crashed upgrade *fails closed* onto the surviving v2
        file (``verify()`` still reports the torn file).  Only when no
        representation decodes is the first corruption raised."""
        first_error = None
        for codec, path in self._object_candidates(fingerprint):
            try:
                blob = self._read_artifact(codec, path)
            except FileNotFoundError:
                continue
            try:
                decoded = decoder(codec, blob)
            except CatalogStoreError as error:
                if first_error is None:
                    first_error = CatalogStoreError(
                        f"corrupt catalog object at {path!r}: {error}"
                    )
                    first_error.__cause__ = error
                continue
            self._count("reads", "objects")
            self._count("read_bytes", "objects", len(blob))
            return decoded
        if first_error is not None:
            raise first_error
        raise KeyError(f"no catalog object {fingerprint!r}")

    def read_object(self, fingerprint: str):
        """Load ``(meta, {column: ColumnEntry})`` for one fingerprint.

        Tries the sharded layout first (any registered codec), then the
        layout-v1 flat path.  Raises ``KeyError`` when no representation
        exists and :class:`CatalogStoreError` when every existing one is
        corrupt (a corrupt representation with a healthy fallback reads
        from the fallback)."""
        return self._decode_candidates(
            fingerprint, lambda codec, blob: codec.decode(blob)
        )

    def read_object_meta(self, fingerprint: str) -> dict:
        """Just the ``meta`` dict of one object — the binary and mmap
        codecs read only the fixed-size header, so Table-I style reports
        over large catalogs never materialize the value sets."""
        return self._decode_candidates(
            fingerprint, lambda codec, blob: codec.decode_meta(blob)
        )

    def list_tombstones(self) -> dict:
        """``{fingerprint: deletion timestamp}`` across all object shards."""
        objects_dir = self._objects_dir()
        if not self.backend.isdir(objects_dir):
            return {}
        out = {}
        for name in sorted(self.backend.listdir(objects_dir)):
            shard_dir = os.path.join(objects_dir, name)
            if not self.backend.isdir(shard_dir):
                continue
            for key, info in self._read_shard_section(
                shard_dir, "tombstones"
            ).items():
                if isinstance(info, dict) and isinstance(
                    info.get("ts"), (int, float)
                ):
                    out[key] = float(info["ts"])
        return out

    def _remove_object_files(self, fingerprint: str) -> None:
        for codec in CODECS.values():
            self._remove(self._object_path(fingerprint, codec))
        self._remove(self._legacy_object_path(fingerprint))

    def delete_object(self, fingerprint: str) -> None:
        """Durably delete one object (tombstone-first protocol).

        The deletion intent — ``{del objects, set tombstone}`` as one
        atomic log append — lands before any file is removed, all under
        the shard lock.  A deleter killed at any point leaves a store
        that verifies: either nothing happened yet, or the tombstone is
        durable and :meth:`sweep_tombstones` finishes the file removal.
        Concurrent writers in the shard are linearized by the lock, so
        a racing :meth:`write_object` either completes before (and is
        deleted) or after (clearing the tombstone, object lives)."""
        shard_dir = self._object_shard_dir(fingerprint)
        if not (
            self.has_object(fingerprint)
            or fingerprint in self._read_shard_section(shard_dir, "objects")
        ):
            # Nothing recorded and no file anywhere: leave no tombstone
            # behind (deleting the absent is a no-op, not an intent).
            return

        removed = []

        def _remove_files():
            self._remove_object_files(fingerprint)
            removed.append(True)
            self._fault("object-files-removed")

        # Un-record before tombstoning (one append; see write_object for
        # why every prefix of the pair must read consistent).
        self._apply_shard_ops(
            shard_dir,
            [
                ("objects", "del", fingerprint, None),
                ("tombstones", "set", fingerprint, {"ts": _now()}),
            ],
            between=_remove_files,
        )
        if not removed:
            # The protocol's bookkeeping is best-effort (an unwritable
            # log or lock swallows as OSError and skips ``between``) —
            # but best-effort must stay confined to bookkeeping: the
            # deletion itself still happens, like the pre-tombstone
            # behavior.  An injected crash propagates out above, so this
            # fallback never runs under fault tests.
            self._remove_object_files(fingerprint)

    def sweep_tombstones(self) -> int:
        """Finish deletions a crashed deleter left half-done.

        For every tombstoned fingerprint whose shard manifest no longer
        records an object, any surviving data file is removed (under the
        shard lock, so a concurrent re-add — which clears the tombstone
        atomically with its object record — can never be reaped).
        Returns the number of files removed.  Expired tombstones are
        pruned by every compaction; sweeping only reconciles files.
        """
        objects_dir = self._objects_dir()
        if not self.backend.isdir(objects_dir):
            return 0
        removed = 0
        for name in sorted(self.backend.listdir(objects_dir)):
            shard_dir = os.path.join(objects_dir, name)
            if not self.backend.isdir(shard_dir):
                continue
            if not self._read_shard_section(shard_dir, "tombstones"):
                continue
            try:
                with self._dir_lock(shard_dir):
                    # Re-read under the lock: a concurrent write may have
                    # just cleared a tombstone we saw.
                    payload = self._read_shard_manifest(shard_dir)
                    tombstones = payload.get("tombstones")
                    objects = payload.get("objects")
                    if not isinstance(tombstones, dict):
                        continue
                    recorded = objects if isinstance(objects, dict) else {}
                    for fingerprint in sorted(tombstones):
                        if fingerprint in recorded:
                            continue
                        for _codec, path in self._object_candidates(fingerprint):
                            if self.backend.exists(path):
                                self._remove(path)
                                removed += 1
            except OSError:
                continue
        if self.obs is not None:
            self.obs["tombstone_sweeps"].inc()
            if removed:
                self.obs["tombstones_swept"].inc(removed)
        return removed

    def _extensions(self):
        return {codec.extension for codec in CODECS.values()}

    def list_objects(self) -> list:
        """Fingerprints of all stored table objects, across layouts.

        Layout-v1 flat files are only counted when their stem is
        fingerprint-shaped: the objects root can pick up stray ``*.json``
        files (editor droppings, notes, tooling output), and reporting
        those as fingerprints would make ``gc`` "delete" them and
        ``verify`` flag phantom objects."""
        objects_dir = self._objects_dir()
        if not self.backend.isdir(objects_dir):
            return []
        extensions = self._extensions()
        found = set()
        for name in self.backend.listdir(objects_dir):
            path = os.path.join(objects_dir, name)
            if self.backend.isdir(path):
                for entry in self.backend.listdir(path):
                    if entry == "manifest.json":
                        continue
                    stem, ext = os.path.splitext(entry)
                    if ext in extensions:
                        found.add(stem)
            elif name.endswith(".json"):
                stem = name[: -len(".json")]
                if _FINGERPRINT_RE.match(stem):
                    found.add(stem)
        return sorted(found)

    def gc(self, live_fingerprints, live_check=None) -> int:
        """Delete objects not in ``live_fingerprints``; returns the count.

        The live set is a *scan-time* snapshot, so before reclaiming
        each candidate gc re-checks, under that object's shard lock:

        1. **Lease ownership** — an object whose record carries the
           fencing token of a currently active lease, or whose id is in
           an active lease's ``claims`` (:meth:`claim_objects`), is a
           concurrent writer's in-flight work (written or adopted after
           the scan, references not yet saved) and is skipped.  Crashed
           writers stop renewing, their leases expire, and their
           orphans become collectible on a later pass — leases defer
           reclamation, they never leak it.
        2. **Fresh liveness** — ``live_check``, when given, is called to
           produce an up-to-date live set (the catalog re-reads the root
           manifest); an object a just-landed save references is live,
           not garbage.

        Both checks happen under the same shard lock that
        :meth:`write_object` and :meth:`delete_object` take, so the
        decision is linearized against every writer in the shard.  With
        leases disabled (``lease_ttl=None``) and no ``live_check``,
        this degrades to the historical scan-then-delete pass — which
        is exactly the racy behavior the fault-injection regression
        test pins as lossy.

        Also sweeps tombstones, finishing any deletion a crashed writer
        left half-done.  Per-pass counts land in :attr:`last_gc` (and
        the ``gc_skipped`` metric family when metrics are attached).
        """
        live = set(live_fingerprints)
        removed = 0
        skipped_leased = 0
        skipped_live = 0
        gc_lease = (
            self.leases.acquire(kind="gc") if self.leases is not None else None
        )
        if gc_lease is not None and self.obs is not None:
            self.obs["lease_acquires"].labels(kind="gc").inc()
        # Leases protect *other* writers' in-flight work.  This store's
        # own writer lease never shields a candidate: the caller just
        # declared its own live set, so anything it owns outside that
        # set is garbage by its own account.
        own_leases = (gc_lease, self._writer_lease)
        try:
            for fingerprint in self.list_objects():
                if fingerprint in live:
                    continue
                shard_dir = self._object_shard_dir(fingerprint)
                with self._dir_lock(shard_dir):
                    if self.leases is not None:
                        record = self._read_shard_section(
                            shard_dir, "objects"
                        ).get(fingerprint)
                        tokens, claims = self.leases.active_holds(
                            exclude=own_leases
                        )
                        if fingerprint in claims or _record_lease(record) in tokens:
                            skipped_leased += 1
                            if self.obs is not None:
                                self.obs["gc_skipped"].labels(
                                    reason="leased"
                                ).inc()
                            continue
                    if live_check is not None and fingerprint in set(
                        live_check()
                    ):
                        skipped_live += 1
                        if self.obs is not None:
                            self.obs["gc_skipped"].labels(reason="live").inc()
                        continue
                    self.delete_object(fingerprint)
                    removed += 1
        finally:
            if gc_lease is not None:
                self.leases.release(gc_lease)
        self.sweep_tombstones()
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

        ``None`` when the file is absent, :data:`_CORRUPT_PROFILES`
        when it is damaged — cached profiles are a pure optimization,
        so corruption degrades to recomputation (and is overwritten by
        the next flush), never fails a discovery run."""
        try:
            with self.backend.open_read(path) as handle:
                with np.load(handle) as payload:
                    return {
                        key: payload[key].astype(float, copy=False)
                        for key in payload.files
                    }
        except FileNotFoundError:
            return None
        except Exception:
            return self._CORRUPT_PROFILES

    def read_profiles(self, base_fingerprint: str) -> dict:
        """Cached ``{profile key: vector}`` for one base table.

        Reading touches the group's LRU clock, so actively-used bases
        survive budget enforcement."""
        path = self._profile_path(base_fingerprint)
        entries = self._read_profile_file(path)
        if entries is self._CORRUPT_PROFILES:
            return {}
        if entries is not None:
            # LRU bookkeeping happens outside the load guard: a failed
            # touch must never discard a successfully loaded cache.
            self._touch_profile_group(base_fingerprint)
            self._count("reads", "profiles")
            self._count("read_bytes", "profiles", self._size(path))
            return entries
        # Layout-v1 flat JSON group (read-through; migrated on next write).
        try:
            payload = json.loads(
                self.backend.read_bytes(
                    self._legacy_profile_path(base_fingerprint)
                ).decode("utf-8")
            )
            return {
                key: np.array(vector, dtype=float)
                for key, vector in payload["entries"].items()
            }
        except FileNotFoundError:
            return {}
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError, ValueError):
            return {}

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
        with self._dir_lock(shard_dir):
            if merge:
                current = self._read_profile_file(path)
                if current and current is not self._CORRUPT_PROFILES:
                    arrays = {**current, **arrays}
            buffer = io.BytesIO()
            np.savez(
                buffer, **{key: arrays[key] for key in sorted(arrays)}
            )
            blob = buffer.getvalue()
            self.backend.write_bytes(path, blob)
            self._count("writes", "profiles")
            self._count("write_bytes", "profiles", len(blob))
            self._update_shard_manifest(
                shard_dir,
                "groups",
                "set",
                base_fingerprint,
                {"bytes": len(blob), "touched": _now()},
            )
        self._remove(self._legacy_profile_path(base_fingerprint))
        if self.profile_budget_bytes is not None:
            self.evict_profiles(
                self.profile_budget_bytes, keep=frozenset({base_fingerprint})
            )

    def _touch_profile_group(self, base_fingerprint: str) -> None:
        self._touch_section_entry(
            self._profile_shard_dir(base_fingerprint),
            "groups",
            base_fingerprint,
            self._profile_path(base_fingerprint),
        )

    def delete_profiles(self, base_fingerprint: str) -> None:
        """Drop one base table's cached profile group (both layouts)."""
        self._remove(self._profile_path(base_fingerprint))
        self._remove(self._legacy_profile_path(base_fingerprint))
        shard_dir = self._profile_shard_dir(base_fingerprint)
        if self._read_shard_section(shard_dir, "groups").get(base_fingerprint):
            self._update_shard_manifest(
                shard_dir, "groups", "del", base_fingerprint
            )

    def list_profile_groups(self) -> list:
        profiles_dir = self._profiles_dir()
        if not self.backend.isdir(profiles_dir):
            return []
        found = set()
        for name in self.backend.listdir(profiles_dir):
            path = os.path.join(profiles_dir, name)
            if self.backend.isdir(path):
                for entry in self.backend.listdir(path):
                    if entry.endswith(".npz"):
                        found.add(entry[: -len(".npz")])
            elif name.endswith(".json"):
                found.add(name[: -len(".json")])
        return sorted(found)

    def _profile_inventory(self) -> list:
        """``(touched, base_fingerprint, bytes)`` for every profile
        group — the shared sharded inventory plus layout-v1 flat groups
        (no bookkeeping, so ordered by file mtime; skipped when a
        sharded copy supersedes them)."""
        profiles_dir = self._profiles_dir()
        inventory, seen = self._sharded_inventory(profiles_dir, "groups", ".npz")
        if not self.backend.isdir(profiles_dir):
            return inventory
        for name in sorted(self.backend.listdir(profiles_dir)):
            if not name.endswith(".json"):
                continue
            if self.backend.isdir(os.path.join(profiles_dir, name)):
                continue
            base_fingerprint = name[: -len(".json")]
            if base_fingerprint in seen:
                continue
            path = self._legacy_profile_path(base_fingerprint)
            try:
                touched = self.backend.mtime(path)
            except OSError:
                # Deleted between the listing and the stat (a concurrent
                # eviction): skip the ghost instead of crashing or
                # inventorying a zero-byte phantom.
                if not self.backend.exists(path):
                    continue
                touched = 0.0
            inventory.append((touched, base_fingerprint, self._size(path)))
        return inventory

    def profile_bytes(self) -> int:
        """Total on-disk size of the cached-profile section."""
        return sum(size for _t, _fp, size in self._profile_inventory())

    def evict_profiles(self, budget_bytes: int, keep=frozenset()):
        """Evict least-recently-touched profile groups until the section
        fits ``budget_bytes``.  ``keep`` groups are never evicted (the
        writer protects the group it just flushed).  Returns
        ``(evicted_groups, freed_bytes)``."""
        return self._evict_lru(
            self._profile_inventory(), budget_bytes, keep, self.delete_profiles
        )

    # ------------------------------------------------------------------
    # Persisted run records (the result cache's on-disk tier)
    # ------------------------------------------------------------------
    def _results_dir(self) -> str:
        return os.path.join(self.root, "results")

    def _result_shard_dir(self, key: str) -> str:
        return os.path.join(self._results_dir(), shard_of(key))

    def _result_path(self, key: str) -> str:
        return os.path.join(self._result_shard_dir(key), f"{key}.json")

    def write_result(self, key: str, payload: dict) -> None:
        """Persist one run record under its canonical request key.

        Same shard layout, lock, and LRU bookkeeping as profile groups;
        ``result_budget_bytes`` (when set) evicts least-recently-touched
        records after every write, never the one just written."""
        path = self._result_path(key)
        shard_dir = os.path.dirname(path)
        self.backend.makedirs(shard_dir)
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        with self._dir_lock(shard_dir):
            self.backend.write_bytes(path, blob)
            self._count("writes", "results")
            self._count("write_bytes", "results", len(blob))
            self._update_shard_manifest(
                shard_dir,
                "results",
                "set",
                key,
                {"bytes": len(blob), "touched": _now()},
            )
        if self.result_budget_bytes is not None:
            self.evict_results(self.result_budget_bytes, keep=frozenset({key}))

    def read_result(self, key: str):
        """Stored payload for ``key``, or ``None`` when absent or corrupt
        (persisted runs are a pure optimization — damage degrades to
        re-running, and the next write overwrites the bad file).

        Reading touches the record's LRU clock, so replayed requests
        survive budget enforcement."""
        try:
            raw = self.backend.read_bytes(self._result_path(key))
            payload = json.loads(raw.decode("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        self._touch_result(key)
        self._count("reads", "results")
        self._count("read_bytes", "results", len(raw))
        return payload

    def _touch_result(self, key: str) -> None:
        self._touch_section_entry(
            self._result_shard_dir(key), "results", key, self._result_path(key)
        )

    def result_record_size(self, key: str) -> int:
        """On-disk byte size of one stored record (0 when absent) — lets
        a caller that just read the record budget it without
        re-serializing the payload."""
        return self._size(self._result_path(key))

    def delete_result(self, key: str) -> None:
        self._remove(self._result_path(key))
        shard_dir = self._result_shard_dir(key)
        if self._read_shard_section(shard_dir, "results").get(key):
            self._update_shard_manifest(shard_dir, "results", "del", key)

    def list_results(self) -> list:
        results_dir = self._results_dir()
        if not self.backend.isdir(results_dir):
            return []
        found = set()
        for name in self.backend.listdir(results_dir):
            shard_dir = os.path.join(results_dir, name)
            if not self.backend.isdir(shard_dir):
                continue
            for entry in self.backend.listdir(shard_dir):
                if entry.endswith(".json") and entry != "manifest.json":
                    found.add(entry[: -len(".json")])
        return sorted(found)

    def _result_inventory(self) -> list:
        """``(touched, key, bytes)`` for every stored run record (the
        shared sharded inventory; this section has no legacy layout)."""
        return self._sharded_inventory(self._results_dir(), "results", ".json")[0]

    def result_bytes(self) -> int:
        """Total on-disk size of the persisted run-record section."""
        return sum(size for _t, _k, size in self._result_inventory())

    def evict_results(self, budget_bytes: int, keep=frozenset()):
        """Evict least-recently-touched run records until the section
        fits ``budget_bytes``; returns ``(evicted, freed_bytes)``."""
        return self._evict_lru(
            self._result_inventory(), budget_bytes, keep, self.delete_result
        )

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
    # Migration
    # ------------------------------------------------------------------
    def migrate(self) -> dict:
        """Rewrite every legacy artifact into the current layout, in place.

        Layout-v1 flat objects (and any object stored under a non-default
        codec) are re-encoded with the default codec into their shard
        directory; flat profile groups move to sharded ``.npz``; the root
        manifest is rewritten at the current version.  Every step writes
        the new representation atomically before removing the old one, so
        a crash mid-migration leaves a store where every object is still
        readable (the read path checks both layouts) and a re-run
        finishes the job.  Idempotent: a fully-migrated store reports
        zero rewrites.  Returns ``{"objects": n, "profiles": n}``.
        """
        migrated_objects = 0
        for fingerprint in self.list_objects():
            if self.backend.exists(self._object_path(fingerprint, self.codec)):
                # Already migrated — but a crash between an earlier
                # rewrite and its cleanup can leave a superseded legacy
                # copy behind; finish that removal here.
                for codec in CODECS.values():
                    if codec is not self.codec:
                        self._remove(self._object_path(fingerprint, codec))
                self._remove(self._legacy_object_path(fingerprint))
                continue
            meta, entries = self.read_object(fingerprint)
            self.write_object(fingerprint, meta, entries, overwrite=True)
            migrated_objects += 1
        migrated_profiles = 0
        for base_fingerprint in self.list_profile_groups():
            if self.backend.exists(self._profile_path(base_fingerprint)):
                self._remove(self._legacy_profile_path(base_fingerprint))
                continue
            entries = self.read_profiles(base_fingerprint)
            self.write_profiles(base_fingerprint, entries)
            migrated_profiles += 1
        manifest = self.read_manifest()
        if manifest is not None and manifest.get("version") != VERSION:
            self.write_manifest(manifest["config"], manifest["tables"])
        return {"objects": migrated_objects, "profiles": migrated_profiles}

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def verify(self) -> dict:
        """Deep integrity check of every manifest and artifact.

        Decodes every stored object, loads every profile group, parses
        the root manifest, and cross-checks each shard manifest entry
        against the files it claims — the post-condition multi-writer
        and crash tests assert on.  Returns ``{"objects": n,
        "profile_groups": n, "problems": [...]}``; an intact store
        reports no problems."""
        problems = []
        try:
            self.read_manifest()
        except CatalogStoreError as error:
            problems.append(f"root manifest: {error}")
        objects = self.list_objects()
        for fingerprint in objects:
            # Every representation present is checked individually (the
            # read path falls through corrupt candidates, so a torn v3
            # beside a healthy v2 still reads — verify must flag it).
            found = 0
            for codec, path in self._object_candidates(fingerprint):
                try:
                    blob = self._read_artifact(codec, path)
                except FileNotFoundError:
                    continue
                found += 1
                try:
                    codec.check(blob)
                except CatalogStoreError as error:
                    problems.append(
                        f"object {fingerprint!r} at {path!r}: {error}"
                    )
            if not found:
                problems.append(
                    f"object {fingerprint!r}: no representation on disk"
                )
        objects_dir = self._objects_dir()
        if self.backend.isdir(objects_dir):
            for name in sorted(self.backend.listdir(objects_dir)):
                shard_dir = os.path.join(objects_dir, name)
                if not self.backend.isdir(shard_dir):
                    continue
                recorded = self._read_shard_section(shard_dir, "objects")
                tombstones = self._read_shard_section(shard_dir, "tombstones")
                for fingerprint, value in sorted(recorded.items()):
                    version = _record_codec(value)
                    if fingerprint in tombstones:
                        # The write/delete protocols update both sections
                        # in one atomic log append, so a fingerprint both
                        # recorded live and tombstoned is corruption.
                        problems.append(
                            f"shard {name}: object {fingerprint!r} is both "
                            "recorded live and tombstoned"
                        )
                    if version not in CODECS:
                        problems.append(
                            f"shard {name}: object {fingerprint!r} records "
                            f"unknown codec version {version!r}"
                        )
                        continue
                    if not self.has_object(fingerprint):
                        problems.append(
                            f"shard {name}: manifest references missing "
                            f"object {fingerprint!r}"
                        )
        groups = self.list_profile_groups()
        for group in groups:
            loaded = self._read_profile_file(self._profile_path(group))
            if loaded is self._CORRUPT_PROFILES:
                problems.append(f"profile group {group!r}: corrupt archive")
        results = self.list_results()
        for key in results:
            try:
                payload = json.loads(
                    self.backend.read_bytes(self._result_path(key)).decode(
                        "utf-8"
                    )
                )
                if not isinstance(payload, dict):
                    raise ValueError("not a dict")
            except FileNotFoundError:
                continue
            except (OSError, ValueError, UnicodeDecodeError):
                problems.append(f"run record {key!r}: corrupt")
        return {
            "objects": len(objects),
            "profile_groups": len(groups),
            "run_records": len(results),
            "tombstones": len(self.list_tombstones()),
            "problems": problems,
        }

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counts and on-disk footprint of the store."""
        manifest = self.read_manifest() or {"config": {}, "tables": {}}
        n_profiles = 0
        for group in self.list_profile_groups():
            # Count keys straight off the archive/JSON member list — stats
            # must not materialize every cached vector as a numpy array.
            try:
                with self.backend.open_read(self._profile_path(group)) as handle:
                    with np.load(handle) as payload:
                        n_profiles += len(payload.files)
                continue
            except FileNotFoundError:
                pass
            except Exception:
                continue
            try:
                payload = json.loads(
                    self.backend.read_bytes(
                        self._legacy_profile_path(group)
                    ).decode("utf-8")
                )
                n_profiles += len(payload.get("entries", {}))
            except (
                FileNotFoundError,
                json.JSONDecodeError,
                UnicodeDecodeError,
                AttributeError,
            ):
                pass
        return {
            "version": manifest.get("version", VERSION),
            "backend": self.backend.name,
            "tables": len(manifest["tables"]),
            "objects": len(self.list_objects()),
            "profile_groups": len(self.list_profile_groups()),
            "profile_entries": n_profiles,
            "profile_bytes": self.profile_bytes(),
            "run_records": len(self.list_results()),
            "result_bytes": self.result_bytes(),
            "tombstones": len(self.list_tombstones()),
            "leases": (
                len(self.leases.active(reap=False))
                if self.leases is not None
                else 0
            ),
            "disk_bytes": self.backend.disk_bytes(),
            "config": manifest["config"],
        }


