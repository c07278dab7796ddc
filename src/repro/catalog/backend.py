"""Pluggable persistence backends for the catalog store.

:class:`CatalogStore` speaks to disk exclusively through a
:class:`StoreBackend` — a small filesystem-shaped contract (atomic blob
writes, atomic appends, directory listings, advisory locks) over
*absolute paths under the store root*.  Keeping paths as the addressing
scheme means the store's layout logic (shards, manifests, tombstones)
is backend-agnostic while every backend stays free to map those paths
onto whatever physical representation it wants:

:class:`LocalFSBackend`
    The default.  Each virtual path is exactly one real file, written
    via unique-temp-file + rename — byte-for-byte the layout the store
    has always produced, so existing stores open unchanged and golden
    byte-identity tests hold.

:class:`SegmentsBackend`
    An object-store shape: blobs are appended to immutable, append-only
    segment files (``segments/seg-<seq>.seg``) and located through a
    compacting ``segments/index.json`` manifest mapping each virtual
    path to ``(segment, offset, length)``.  Overwrites and deletions
    never touch old bytes — they re-point or drop the index entry and
    account the dead bytes as garbage; when garbage crosses a
    threshold, live blobs are rewritten into fresh segments and the old
    files removed.  Because sealed segments are immutable,
    :meth:`SegmentsBackend.sync_into` can replicate a consistent
    read-only snapshot of the whole store into another root ("node")
    by copying segment files and then publishing the index — the
    replication primitive the multi-node serving path builds on.

``backend_for`` picks the backend for a root: an explicit name wins,
otherwise a root carrying a segments index opens as segments and
anything else as local FS.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from contextlib import contextmanager

from repro.utils.locks import FileLock


class CatalogStoreError(RuntimeError):
    """Raised on store corruption or configuration mismatch."""


class StoreBackend:
    """Filesystem-shaped persistence primitives behind the catalog store.

    All paths are absolute paths at or under the backend's root.  Every
    mutation is atomic at the single-call level: a reader never observes
    a partially written blob or a torn append.  Errors surface as the
    matching ``OSError`` subclasses (``FileNotFoundError`` for missing
    paths), so store-level recovery code works identically against any
    backend.
    """

    #: Short stable name ("local", "segments") for stats and the CLI.
    name: str

    root: str

    # -- reads ---------------------------------------------------------
    def open_read(self, path: str):
        """Binary, seekable file object over one blob."""
        raise NotImplementedError

    def read_bytes(self, path: str) -> bytes:
        with self.open_read(path) as handle:
            return handle.read()

    # -- writes --------------------------------------------------------
    def write_bytes(self, path: str, data: bytes) -> None:
        """Atomically (re)write one blob."""
        raise NotImplementedError

    def append_bytes(self, path: str, data: bytes) -> None:
        """Atomically append ``data`` to ``path`` (created if absent)."""
        raise NotImplementedError

    @contextmanager
    def write_stream(self, path: str):
        """Writable binary stream that lands atomically on close (for
        large artifacts that should not be buffered twice when the
        backend can stream them)."""
        buffer = io.BytesIO()
        yield buffer
        self.write_bytes(path, buffer.getvalue())

    def remove(self, path: str) -> None:
        """Delete one blob; ``FileNotFoundError`` when absent."""
        raise NotImplementedError

    # -- namespace -----------------------------------------------------
    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def isdir(self, path: str) -> bool:
        raise NotImplementedError

    def listdir(self, path: str) -> list:
        raise NotImplementedError

    def makedirs(self, path: str) -> None:
        """Ensure a directory exists (no-op for backends whose
        directories are implied by their files)."""
        raise NotImplementedError

    def size(self, path: str) -> int:
        raise NotImplementedError

    def mtime(self, path: str) -> float:
        raise NotImplementedError

    # -- coordination --------------------------------------------------
    def lock(self, path: str):
        """Advisory exclusive lock context manager for one lock path
        (cross-process and cross-thread, like :class:`FileLock`)."""
        raise NotImplementedError

    # -- accounting ----------------------------------------------------
    def disk_bytes(self) -> int:
        """Physical bytes this store occupies on disk."""
        raise NotImplementedError

    def sync_into(self, dest_root: str) -> dict:
        """Replicate a consistent read-only snapshot into ``dest_root``.

        Only backends with immutable physical artifacts support this;
        others raise :class:`CatalogStoreError`."""
        raise CatalogStoreError(
            f"backend {self.name!r} does not support snapshot replication"
        )


class LocalFSBackend(StoreBackend):
    """One virtual path == one real file; the historical store layout."""

    name = "local"

    def __init__(self, root: str):
        self.root = str(root)

    def open_read(self, path: str):
        return open(path, "rb")

    def write_bytes(self, path: str, data: bytes) -> None:
        # Unique temp file + rename: readers never see partial content
        # and concurrent writers cannot interleave into one temp file —
        # last completed writer wins.
        fd, tmp = tempfile.mkstemp(
            prefix=f"{os.path.basename(path)}.", suffix=".tmp",
            dir=os.path.dirname(path) or ".",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except FileNotFoundError:
                pass
            raise

    def append_bytes(self, path: str, data: bytes) -> None:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    @contextmanager
    def write_stream(self, path: str):
        # Streamed straight into the temp file (not via an in-memory
        # buffer): the snapshot is the largest single artifact, and
        # buffering it would double peak memory on every save.
        fd, tmp = tempfile.mkstemp(
            prefix=f"{os.path.basename(path)}.", suffix=".tmp",
            dir=os.path.dirname(path) or ".",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                yield handle
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except FileNotFoundError:
                pass
            raise

    def remove(self, path: str) -> None:
        os.remove(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def listdir(self, path: str) -> list:
        return os.listdir(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    def mtime(self, path: str) -> float:
        return os.path.getmtime(path)

    def lock(self, path: str):
        return FileLock(path)

    def disk_bytes(self) -> int:
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    # Concurrently deleted (an eviction, a gc) between
                    # the walk and the stat: skip, never crash stats.
                    continue
        return total


class SegmentsBackend(StoreBackend):
    """Immutable append-only segments + a compacting index manifest.

    Physical layout under the root::

        segments/seg-00000001.seg   append-only blob data
        segments/index.json         {"next_seq", "active", "garbage",
                                     "files": {rel path: {seg, off, len, ts}}}
        locks/<mangled rel>.lock    real lock files backing ``lock()``

    Every mutation runs under one root-level index lock and publishes by
    atomically rewriting the index, so readers always observe a
    consistent mapping.  Directories are implied by file paths — there
    is nothing to create or clean up.  Dead bytes (overwritten or
    removed blobs) accumulate as ``garbage`` until compaction rewrites
    the live set into fresh segments (sequence numbers are never
    reused) and deletes the old files.
    """

    name = "segments"

    SEGMENT_DIR = "segments"
    INDEX_NAME = "index.json"

    def __init__(
        self,
        root: str,
        segment_bytes: int = 4 * 1024 * 1024,
        compact_min_garbage: int = 256 * 1024,
        compact_garbage_ratio: float = 0.5,
    ):
        self.root = str(root)
        self.segment_bytes = int(segment_bytes)
        self.compact_min_garbage = int(compact_min_garbage)
        self.compact_garbage_ratio = float(compact_garbage_ratio)
        self._seg_dir = os.path.join(self.root, self.SEGMENT_DIR)
        self._index_path = os.path.join(self._seg_dir, self.INDEX_NAME)
        self._lock_dir = os.path.join(self.root, "locks")
        #: Compactions performed (introspection for tests/benchmarks).
        self.compactions = 0

    # -- index ---------------------------------------------------------
    def _ilock(self):
        return FileLock(os.path.join(self._seg_dir, ".index.lock"))

    def _load_index(self) -> dict:
        try:
            with open(self._index_path, "rb") as handle:
                index = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            return {"version": 1, "next_seq": 1, "active": None, "garbage": 0,
                    "files": {}}
        except (OSError, ValueError, UnicodeDecodeError) as error:
            raise CatalogStoreError(
                f"corrupt segments index at {self._index_path!r}: {error}"
            ) from error
        if not isinstance(index, dict) or not isinstance(
            index.get("files"), dict
        ):
            raise CatalogStoreError(
                f"corrupt segments index at {self._index_path!r}: not an index"
            )
        return index

    def _store_index(self, index: dict) -> None:
        os.makedirs(self._seg_dir, exist_ok=True)
        blob = json.dumps(index, sort_keys=True).encode("utf-8")
        fd, tmp = tempfile.mkstemp(
            prefix="index.", suffix=".tmp", dir=self._seg_dir
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self._index_path)
        except BaseException:
            try:
                os.remove(tmp)
            except FileNotFoundError:
                pass
            raise

    def _rel(self, path: str) -> str:
        rel = os.path.relpath(str(path), self.root)
        if rel.startswith(".."):
            raise CatalogStoreError(
                f"path {path!r} is outside the segments store root "
                f"{self.root!r}"
            )
        return rel.replace(os.sep, "/")

    def _segment_path(self, name: str) -> str:
        return os.path.join(self._seg_dir, name)

    # -- reads ---------------------------------------------------------
    def open_read(self, path: str):
        rel = self._rel(path)
        # A compaction can delete the segment between the (lock-free)
        # index read and the data read — retry with a fresh index.
        for attempt in range(3):
            entry = self._load_index()["files"].get(rel)
            if entry is None:
                raise FileNotFoundError(2, "No such stored blob", path)
            try:
                with open(self._segment_path(entry["seg"]), "rb") as handle:
                    handle.seek(int(entry["off"]))
                    data = handle.read(int(entry["len"]))
            except FileNotFoundError:
                if attempt == 2:
                    raise
                continue
            if len(data) != int(entry["len"]):
                raise CatalogStoreError(
                    f"segments store: blob {rel!r} truncated in "
                    f"{entry['seg']!r}"
                )
            return io.BytesIO(data)
        raise FileNotFoundError(2, "No such stored blob", path)  # pragma: no cover

    # -- writes --------------------------------------------------------
    def _append_blob(self, index: dict, rel: str, data: bytes) -> None:
        """Append ``data`` to the active segment and point ``rel`` at it
        (caller holds the index lock and publishes the index)."""
        active = index.get("active")
        os.makedirs(self._seg_dir, exist_ok=True)
        if active is not None:
            try:
                offset = os.path.getsize(self._segment_path(active))
            except FileNotFoundError:
                active, offset = None, 0
        else:
            offset = 0
        if active is None or (offset and offset + len(data) > self.segment_bytes):
            active = f"seg-{int(index['next_seq']):08d}.seg"
            index["next_seq"] = int(index["next_seq"]) + 1
            index["active"] = active
            offset = 0
        fd = os.open(
            self._segment_path(active),
            os.O_WRONLY | os.O_APPEND | os.O_CREAT,
            0o644,
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        old = index["files"].get(rel)
        if old is not None:
            index["garbage"] = int(index.get("garbage", 0)) + int(old["len"])
        index["files"][rel] = {
            "seg": active, "off": offset, "len": len(data),
            "ts": os.path.getmtime(self._segment_path(active)),
        }

    def _maybe_compact(self, index: dict) -> None:
        garbage = int(index.get("garbage", 0))
        live = sum(int(e["len"]) for e in index["files"].values())
        if garbage < self.compact_min_garbage:
            return
        if garbage < self.compact_garbage_ratio * max(1, garbage + live):
            return
        self.compact(index)

    def compact(self, index: dict = None) -> None:
        """Rewrite live blobs into fresh segments and drop the old files.

        With ``index`` given the caller already holds the index lock (the
        internal auto-compaction path); otherwise the lock is taken here.
        """
        if index is None:
            with self._ilock():
                self.compact(self._load_index())
            return
        old_segments = {e["seg"] for e in index["files"].values()}
        if index.get("active"):
            old_segments.add(index["active"])
        index["active"] = None
        index["garbage"] = 0
        for rel in sorted(index["files"]):
            entry = index["files"][rel]
            with open(self._segment_path(entry["seg"]), "rb") as handle:
                handle.seek(int(entry["off"]))
                data = handle.read(int(entry["len"]))
            self._append_blob(index, rel, data)
        index["garbage"] = 0  # rewrites re-counted their old bytes
        self._store_index(index)
        self.compactions += 1
        kept = {e["seg"] for e in index["files"].values()}
        if index.get("active"):
            kept.add(index["active"])
        for name in old_segments - kept:
            try:
                os.remove(self._segment_path(name))
            except FileNotFoundError:
                pass

    def write_bytes(self, path: str, data: bytes) -> None:
        rel = self._rel(path)
        with self._ilock():
            index = self._load_index()
            self._append_blob(index, rel, data)
            self._store_index(index)
            self._maybe_compact(index)

    def append_bytes(self, path: str, data: bytes) -> None:
        rel = self._rel(path)
        with self._ilock():
            index = self._load_index()
            entry = index["files"].get(rel)
            if entry is None:
                current = b""
            else:
                with open(self._segment_path(entry["seg"]), "rb") as handle:
                    handle.seek(int(entry["off"]))
                    current = handle.read(int(entry["len"]))
            self._append_blob(index, rel, current + data)
            self._store_index(index)
            self._maybe_compact(index)

    def remove(self, path: str) -> None:
        rel = self._rel(path)
        with self._ilock():
            index = self._load_index()
            entry = index["files"].pop(rel, None)
            if entry is None:
                raise FileNotFoundError(2, "No such stored blob", path)
            index["garbage"] = int(index.get("garbage", 0)) + int(entry["len"])
            self._store_index(index)
            self._maybe_compact(index)

    # -- namespace (directories are implied by file paths) -------------
    def exists(self, path: str) -> bool:
        rel = self._rel(path)
        if rel == ".":
            return True
        files = self._load_index()["files"]
        return rel in files or any(f.startswith(rel + "/") for f in files)

    def isdir(self, path: str) -> bool:
        rel = self._rel(path)
        if rel == ".":
            return True
        files = self._load_index()["files"]
        return rel not in files and any(
            f.startswith(rel + "/") for f in files
        )

    def listdir(self, path: str) -> list:
        rel = self._rel(path)
        prefix = "" if rel == "." else rel + "/"
        names = set()
        matched = False
        for f in self._load_index()["files"]:
            if not f.startswith(prefix):
                continue
            matched = True
            names.add(f[len(prefix):].split("/", 1)[0])
        if not matched and rel != ".":
            raise FileNotFoundError(2, "No such directory", path)
        return sorted(names)

    def makedirs(self, path: str) -> None:
        self._rel(path)  # validate only; directories are implied

    def size(self, path: str) -> int:
        entry = self._load_index()["files"].get(self._rel(path))
        if entry is None:
            raise FileNotFoundError(2, "No such stored blob", path)
        return int(entry["len"])

    def mtime(self, path: str) -> float:
        entry = self._load_index()["files"].get(self._rel(path))
        if entry is None:
            raise FileNotFoundError(2, "No such stored blob", path)
        return float(entry.get("ts", 0.0))

    # -- coordination --------------------------------------------------
    def lock(self, path: str):
        # Virtual lock paths map onto real lock files in one flat dir —
        # flock needs an actual inode even when the "directory" being
        # locked exists only inside segments.
        rel = self._rel(path).replace("/", "__")
        return FileLock(os.path.join(self._lock_dir, rel))

    # -- accounting ----------------------------------------------------
    def disk_bytes(self) -> int:
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    continue
        return total

    def sync_into(self, dest_root: str) -> dict:
        """Publish a consistent read-only replica under ``dest_root``.

        Holds the index lock for the duration, so the copied segments
        cannot be compacted away mid-copy; segment files land before the
        index does, so a reader of the destination never sees an index
        pointing at missing data.  Re-running is incremental: sealed
        segments already present (same size) are skipped.
        """
        dest_root = str(dest_root)
        if os.path.abspath(dest_root) == os.path.abspath(self.root):
            raise CatalogStoreError("cannot sync a segments store into itself")
        dest_seg_dir = os.path.join(dest_root, self.SEGMENT_DIR)
        copied = 0
        with self._ilock():
            index = self._load_index()
            os.makedirs(dest_seg_dir, exist_ok=True)
            segments = {e["seg"] for e in index["files"].values()}
            if index.get("active"):
                segments.add(index["active"])
            for name in sorted(segments):
                src = self._segment_path(name)
                dst = os.path.join(dest_seg_dir, name)
                try:
                    if os.path.getsize(dst) == os.path.getsize(src):
                        continue
                except OSError:
                    pass
                fd, tmp = tempfile.mkstemp(
                    prefix=f"{name}.", suffix=".tmp", dir=dest_seg_dir
                )
                os.close(fd)
                try:
                    shutil.copyfile(src, tmp)
                    os.replace(tmp, dst)
                except BaseException:
                    try:
                        os.remove(tmp)
                    except FileNotFoundError:
                        pass
                    raise
                copied += 1
            blob = json.dumps(index, sort_keys=True).encode("utf-8")
            fd, tmp = tempfile.mkstemp(
                prefix="index.", suffix=".tmp", dir=dest_seg_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, os.path.join(dest_seg_dir, self.INDEX_NAME))
            except BaseException:
                try:
                    os.remove(tmp)
                except FileNotFoundError:
                    pass
                raise
        return {
            "segments": len(segments),
            "copied": copied,
            "files": len(index["files"]),
        }


#: Registered backends by name (the CLI's ``--backend`` choices).
BACKENDS = {
    LocalFSBackend.name: LocalFSBackend,
    SegmentsBackend.name: SegmentsBackend,
}


def backend_for(root, backend=None) -> StoreBackend:
    """Resolve the backend for a store root.

    ``backend`` may be a :class:`StoreBackend` instance (used as-is), a
    registered name, or ``None`` — in which case a root that carries a
    segments index opens as segments and anything else as the local FS
    layout, so reopening an existing store never needs the flag."""
    if isinstance(backend, StoreBackend):
        return backend
    root = str(root)
    if backend is None:
        index = os.path.join(
            root, SegmentsBackend.SEGMENT_DIR, SegmentsBackend.INDEX_NAME
        )
        if os.path.exists(index):
            return SegmentsBackend(root)
        return LocalFSBackend(root)
    try:
        return BACKENDS[backend](root)
    except KeyError:
        raise CatalogStoreError(
            f"unknown store backend {backend!r}; expected one of "
            f"{sorted(BACKENDS)}"
        ) from None
