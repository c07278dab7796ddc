"""The one object codec: packed + deflated binary (codec version 2).

A table object — ``(meta, {column: ColumnEntry})`` — is exactly one
``<fingerprint>.bin`` file in this format; :mod:`repro.catalog.store`
owns layout and protocol, this module owns the bytes.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.catalog.backend import CatalogStoreError
from repro.discovery.index import ColumnEntry


def _derived_normalized(distinct) -> frozenset:
    return frozenset(map(str.lower, map(str.strip, distinct)))


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


class BinaryCodec:
    """Packed + deflated binary object format.

    Little-endian throughout::

        magic b"RCAT" | u16 codec version
        u32 meta length | meta JSON (utf-8, uncompressed → cheap meta reads)
        u8 body compression (0 = raw, 1 = zlib) | u32 stored body length
        body (zlib-deflated column section):
            u32 column count
            per column (names strictly ascending):
                u16 name length | name utf-8
                u32 num_perm | num_perm * u64 signature
                u8 flags (bit 0: explicit normalized block follows distinct)
                string-set block (distinct)
                [string-set block (normalized), only if flag bit 0]

        string-set block: u32 count | u32 blob length
                          | count * u32 value lengths | utf-8 value blob

    Values are stored once: the normalized set is re-derived on decode
    whenever it equals ``strip().lower()`` of the distinct set, which is
    how every entry the index computes looks.  Encoding is canonical —
    values sorted, meta JSON with sorted keys, fixed compression level —
    so equal objects encode byte-identically.  Decoding raises
    :class:`CatalogStoreError` on any malformed input — truncated,
    garbled, or wrong-typed — and never returns partial entries.
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
        header = struct.pack("<II", len(encoded), len(blob))
        return header + lengths.tobytes() + blob

    @staticmethod
    def _unpack_strings(cursor: _Cursor) -> tuple:
        """Validate one string-set block whole: ``(byte lengths, blob,
        decoded text)``.

        One C-level decode of the blob, plus — when it holds multi-byte
        characters — a check that every value starts on a character
        boundary: together exactly "every value is valid UTF-8", without
        a decode per value."""
        count, blob_len = cursor.unpack("<II")
        lengths = np.frombuffer(cursor.take(4 * count), dtype="<u4")
        if int(lengths.sum()) != blob_len:
            raise CatalogStoreError(
                "garbled binary object: string lengths disagree with blob size"
            )
        blob = cursor.take(blob_len)
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as error:
            raise CatalogStoreError(
                "garbled binary object: invalid UTF-8 value"
            ) from error
        if len(text) != blob_len:
            starts = np.cumsum(lengths, dtype=np.int64) - lengths
            raw = np.frombuffer(blob, dtype=np.uint8)
            # A value starting on a continuation byte splits a character.
            if np.any((raw[starts[starts < blob_len]] & 0xC0) == 0x80):
                raise CatalogStoreError(
                    "garbled binary object: invalid UTF-8 value"
                )
        return lengths, blob, text

    @staticmethod
    def _string_set(block: tuple) -> frozenset:
        """The values of a block :meth:`_unpack_strings` validated."""
        lengths, blob, text = block
        ends = np.cumsum(lengths, dtype=np.int64)
        starts = ends - lengths
        if len(text) != len(blob):
            # Byte offsets → character offsets: count the lead bytes.
            lead = (np.frombuffer(blob, dtype=np.uint8) & 0xC0) != 0x80
            chars = np.concatenate(([0], np.cumsum(lead)))
            starts, ends = chars[starts], chars[ends]
        slices = map(slice, starts.tolist(), ends.tolist())
        return frozenset(map(text.__getitem__, slices))

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

    def decode(self, blob: bytes, columns=None):
        """``(meta, {column: ColumnEntry})``.

        ``columns`` restricts which entries are built: every block is
        still validated (bounds, lengths, UTF-8, name order), so a blob
        decodes under a restriction exactly when it decodes whole, but
        value sets are materialized only for the requested columns.
        Requesting a column the object lacks is a
        :class:`CatalogStoreError`."""
        wanted = None if columns is None else frozenset(columns)
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
        previous = None
        for _ in range(n_columns):
            (name_len,) = cursor.unpack("<H")
            column = cursor.text(name_len)
            if previous is not None and column <= previous:
                # Canonical encoding sorts names; a repeat would silently
                # overwrite the other column's entry.
                raise CatalogStoreError(
                    f"garbled binary object: column {column!r} follows "
                    f"{previous!r} (names must be strictly ascending)"
                )
            previous = column
            (num_perm,) = cursor.unpack("<I")
            signature = cursor.take(8 * num_perm)
            (flags,) = cursor.unpack("<B")
            distinct = self._unpack_strings(cursor)
            normalized = None
            if flags & self._EXPLICIT_NORMALIZED:
                normalized = self._unpack_strings(cursor)
            if wanted is not None and column not in wanted:
                continue
            distinct = self._string_set(distinct)
            entries[column] = ColumnEntry(
                distinct=distinct,
                normalized=(
                    _derived_normalized(distinct)
                    if normalized is None
                    else self._string_set(normalized)
                ),
                signature=np.frombuffer(signature, dtype="<u8").astype(np.uint64),
            )
        if cursor.pos != len(body):
            raise CatalogStoreError(
                f"garbled binary object: {len(body) - cursor.pos} trailing "
                "bytes in column section"
            )
        if wanted is not None and len(entries) != len(wanted):
            raise CatalogStoreError(
                f"binary object has no column(s) {sorted(wanted - entries.keys())!r}"
            )
        return meta, entries
