"""The catalog store's one persistence backend.

:class:`CatalogStore` speaks to disk exclusively through a backend — a
small filesystem-shaped contract (atomic blob writes, mtime updates,
directory listings, advisory locks) over *absolute paths under the
store root*.  :class:`LocalFSBackend` implements it with one real file
per path, written via unique temp file + rename, so a catalog directory
is plain files readable without the store.

``CatalogStore(root, backend=...)`` accepts any instance with these
methods; tests pass counting subclasses through it, and it is the seam
a remote backend would plug into.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager

from repro.utils.locks import FileLock


class CatalogStoreError(RuntimeError):
    """Raised on store corruption or configuration mismatch."""


@contextmanager
def _atomic_file(path: str):
    """Binary handle on a unique temp file beside ``path``, renamed over
    it on a clean exit: readers never see partial content and concurrent
    writers cannot interleave into one temp file — last completed writer
    wins."""
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


class LocalFSBackend:
    """One path is one real file.

    Every mutation is atomic at the single-call level: a reader never
    observes a partially written blob.  Errors surface
    as the matching ``OSError`` subclasses (``FileNotFoundError`` for
    missing paths)."""

    def __init__(self, root: str):
        self.root = str(root)

    # -- reads ---------------------------------------------------------
    def open_read(self, path: str):
        """Binary, seekable file object over one blob."""
        return open(path, "rb")

    def read_bytes(self, path: str) -> bytes:
        with self.open_read(path) as handle:
            return handle.read()

    # -- writes --------------------------------------------------------
    def write_bytes(self, path: str, data: bytes) -> None:
        """Atomically (re)write one blob."""
        with _atomic_file(path) as handle:
            handle.write(data)

    def write_stream(self, path: str):
        """Writable binary stream that lands atomically on close —
        straight into the temp file, so the snapshot (the largest single
        artifact) is never buffered twice."""
        return _atomic_file(path)

    def touch(self, path: str, when: float) -> None:
        """Set one blob's modification time to ``when`` (seconds since
        the epoch) — a metadata update; the content is not opened."""
        os.utime(path, (when, when))

    def remove(self, path: str) -> None:
        """Delete one blob; ``FileNotFoundError`` when absent."""
        os.remove(path)

    # -- namespace -----------------------------------------------------
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

    # -- coordination --------------------------------------------------
    def lock(self, path: str):
        """Advisory exclusive lock context manager for one lock path
        (cross-process and cross-thread, like :class:`FileLock`)."""
        return FileLock(path)

    # -- accounting ----------------------------------------------------
    def disk_bytes(self) -> int:
        """Physical bytes this store occupies on disk."""
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
